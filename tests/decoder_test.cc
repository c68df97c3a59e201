// AE repair (paper §III-A/B) through the one executor on a one-worker
// pool: single failures are one XOR of two blocks — a node through any
// of its α strands, a parity from its tail or head side — and
// multi-failure recovery proceeds in synchronous planned rounds. The
// planner decides *how* each block is rebuilt; the repaired bytes are
// checked against the original content.
#include <gtest/gtest.h>

#include "ae_test_util.h"
#include "common/rng.h"
#include "core/codec/repair_planner.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 32;

struct Fixture : test::EncodedLattice {
  Fixture(CodeParams code, std::uint64_t count, std::uint64_t seed = 7)
      : EncodedLattice(std::move(code), count, kBlockSize, seed) {}
};

/// The step the full-lattice plan schedules for `key` (from the current
/// store), and the round it lands in.
struct PlannedStep {
  RepairStep step;
  std::size_t round = 0;
};

std::optional<PlannedStep> planned_step(const Fixture& f,
                                        const BlockKey& key) {
  const Lattice lat = f.lattice();
  const RepairPlanner planner(&lat);
  Availability avail = planner.snapshot(f.store);
  const RepairPlan plan = planner.plan(avail);
  for (std::size_t w = 0; w < plan.waves.size(); ++w)
    for (const RepairStep& step : plan.waves[w])
      if (step.key == key) return PlannedStep{step, w + 1};
  return std::nullopt;
}

TEST(LatticeRepair, RepairNodeViaEachStrand) {
  Fixture f(CodeParams(3, 2, 5), 100);
  const Lattice lat = f.lattice();

  // Repair with all strands intact → uses H first.
  f.store.erase(BlockKey::data(50));
  auto planned = planned_step(f, BlockKey::data(50));
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(planned->step.via, StrandClass::kHorizontal);
  EXPECT_EQ(planned->round, 1u);
  f.repair_all();
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(50)), f.truth(50));

  // Knock out the H pair → next strand takes over; value identical.
  f.store.erase(BlockKey::data(50));
  f.store.erase(BlockKey::parity(
      lat.output_edge(50, StrandClass::kHorizontal)));
  planned = planned_step(f, BlockKey::data(50));
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(planned->step.via, StrandClass::kRightHanded);
  EXPECT_EQ(planned->round, 1u);
  f.repair_all();
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(50)), f.truth(50));
}

TEST(LatticeRepair, RepairNodeFailsWhenAllStrandsBroken) {
  // With every output parity gone, d40 is not one XOR away; it only
  // comes back in round 2, after the parities are rebuilt from their
  // head sides.
  Fixture f(CodeParams(2, 2, 2), 100);
  const Lattice lat = f.lattice();
  f.store.erase(BlockKey::data(40));
  for (StrandClass cls : f.params.classes())
    f.store.erase(BlockKey::parity(lat.output_edge(40, cls)));
  const RepairPlanner planner(&lat);
  EXPECT_FALSE(planner.plan_node_repair(f.store, 40).has_value());
  const auto planned = planned_step(f, BlockKey::data(40));
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(planned->round, 2u);
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.rounds, 2u);
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(40)), f.truth(40));
}

TEST(LatticeRepair, RepairEdgeBothOptions) {
  Fixture f(CodeParams(3, 2, 5), 100);
  const Edge e = f.lattice().output_edge(50, StrandClass::kHorizontal);
  const Bytes original = *f.store.get_copy(BlockKey::parity(e));

  // Option A: tail data + input parity.
  f.store.erase(BlockKey::parity(e));
  auto planned = planned_step(f, BlockKey::parity(e));
  ASSERT_TRUE(planned.has_value());
  EXPECT_FALSE(planned->step.from_head);
  EXPECT_EQ(f.repair_all().edges_repaired_total, 1u);
  EXPECT_EQ(*f.store.get_copy(BlockKey::parity(e)), original);

  // Option B: head data + next parity (tail data removed).
  f.store.erase(BlockKey::parity(e));
  f.store.erase(BlockKey::data(50));
  planned = planned_step(f, BlockKey::parity(e));
  ASSERT_TRUE(planned.has_value());
  EXPECT_TRUE(planned->step.from_head);
  EXPECT_EQ(planned->round, 1u);
  f.repair_all();
  EXPECT_EQ(*f.store.get_copy(BlockKey::parity(e)), original);
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(50)), f.truth(50));
}

TEST(LatticeRepair, SingleFailureAlwaysOneXor) {
  // Paper: "none of the three parameters can change the cost of a single
  // failure, which is always repaired by XORing two blocks."
  for (auto code : {CodeParams::single(), CodeParams(2, 2, 5),
                    CodeParams(3, 2, 5), CodeParams(3, 5, 5)}) {
    Fixture f(code, 120);
    f.store.erase(BlockKey::data(60));
    const RepairReport report = f.repair_all();
    EXPECT_EQ(report.rounds, 1u) << code.name();
    EXPECT_EQ(report.nodes_repaired_total, 1u);
    EXPECT_EQ(*f.store.get_copy(BlockKey::data(60)), f.truth(60));
  }
}

TEST(LatticeRepair, RepairAllRecoversScatteredDataLosses) {
  Fixture f(CodeParams(3, 2, 5), 300);
  // Erase every 7th data block — parities intact, so all recoverable.
  std::vector<NodeIndex> erased;
  for (NodeIndex i = 7; i <= 300; i += 7) {
    f.store.erase(BlockKey::data(i));
    erased.push_back(i);
  }
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_repaired_total, erased.size());
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  for (NodeIndex i : erased)
    EXPECT_EQ(*f.store.get_copy(BlockKey::data(i)), f.truth(i));
}

TEST(LatticeRepair, MultiRoundPropagation) {
  // Erase a contiguous run of 11 parities on an AE(1) chain. Only the two
  // extreme edges are repairable at first (via their outer neighbours);
  // each round peels one edge per side, so the repair cascades inward
  // over ~6 rounds.
  Fixture f(CodeParams::single(), 60);
  for (NodeIndex i = 20; i <= 30; ++i)
    f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, i}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  EXPECT_EQ(report.edges_unrecovered, 0u);
  EXPECT_EQ(report.edges_repaired_total, 11u);
  EXPECT_EQ(report.rounds, 6u);  // ceil(11 / 2) inward steps
}

TEST(LatticeRepair, ExtendedPrimitiveFormIIIsIrrecoverable) {
  // Erasing d21..d30 plus the parities p23..p27 embeds the extended
  // primitive form II (paper Fig 6): the dead run p23..p27 is bounded by
  // erased nodes on both sides, so nodes 23..28 and those 5 parities are
  // lost; the outer nodes (21, 22, 29, 30) repair in one round.
  Fixture f(CodeParams::single(), 60);
  for (NodeIndex i = 21; i <= 30; ++i) f.store.erase(BlockKey::data(i));
  for (NodeIndex i = 23; i <= 27; ++i)
    f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, i}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_repaired_total, 4u);
  EXPECT_EQ(report.nodes_unrecovered, 6u);
  EXPECT_EQ(report.edges_unrecovered, 5u);
  for (NodeIndex i : {21, 22, 29, 30}) {
    const auto value = f.store.get_copy(BlockKey::data(i));
    ASSERT_TRUE(value.has_value()) << i;
    EXPECT_EQ(*value, f.truth(i));
  }
}

TEST(LatticeRepair, MinimalErasureIsIrrecoverable) {
  // Primitive form I (paper Fig 6): {d_i, p_{i,i+1}, d_{i+1}} on AE(1).
  Fixture f(CodeParams::single(), 60);
  f.store.erase(BlockKey::data(30));
  f.store.erase(BlockKey::data(31));
  f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 30}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_repaired_total, 0u);
  EXPECT_EQ(report.edges_repaired_total, 0u);
  EXPECT_EQ(report.nodes_unrecovered, 2u);
  EXPECT_EQ(report.edges_unrecovered, 1u);
}

TEST(LatticeRepair, SameLossToleratedWithAlpha2) {
  // The same primitive form I is innocuous for α ≥ 2 (paper §III-B).
  Fixture f(CodeParams(2, 1, 2), 60);
  f.store.erase(BlockKey::data(30));
  f.store.erase(BlockKey::data(31));
  f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 30}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  EXPECT_EQ(report.edges_unrecovered, 0u);
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(30)), f.truth(30));
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(31)), f.truth(31));
}

TEST(LatticeRepair, ReadNodeDirect) {
  Fixture f(CodeParams(3, 2, 5), 100);
  const auto value = f.read_node(42);
  ASSERT_TRUE(value);
  EXPECT_EQ(value, f.truth(42));
}

TEST(LatticeRepair, ReadNodeWithLocalRepair) {
  Fixture f(CodeParams(3, 2, 5), 100);
  f.store.erase(BlockKey::data(42));
  const auto value = f.read_node(42);
  ASSERT_TRUE(value);
  EXPECT_EQ(value, f.truth(42));
  // The repair is persisted.
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(42)), f.truth(42));
}

TEST(LatticeRepair, ReadNodeThroughDamagedNeighbourhood) {
  // Damage the immediate ring around the target so the read must use
  // longer concentric paths (paper Fig 2).
  Fixture f(CodeParams(3, 2, 5), 200);
  const Lattice lat = f.lattice();
  f.store.erase(BlockKey::data(100));
  for (const Edge& e : lat.incident_edges(100))
    f.store.erase(BlockKey::parity(e));
  const auto value = f.read_node(100);
  ASSERT_TRUE(value);
  EXPECT_EQ(value, f.truth(100));
}

TEST(LatticeRepair, ReadNodeIrrecoverableReturnsNullopt) {
  Fixture f(CodeParams::single(), 60);
  f.store.erase(BlockKey::data(30));
  f.store.erase(BlockKey::data(31));
  f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 30}));
  EXPECT_FALSE(f.read_node(30));
  EXPECT_FALSE(f.read_node(31));
}

TEST(LatticeRepair, RepairedBytesAlwaysMatchGroundTruth) {
  // Whatever the repair manages to rebuild must be byte-identical to the
  // original content — across a noisy mixed erasure.
  Fixture f(CodeParams(3, 2, 5), 400);
  Rng rng(99);
  const Lattice lat = f.lattice();
  for (NodeIndex i = 1; i <= 400; ++i) {
    if (rng.bernoulli(0.25)) f.store.erase(BlockKey::data(i));
    for (StrandClass cls : f.params.classes())
      if (rng.bernoulli(0.25))
        f.store.erase(BlockKey::parity(lat.output_edge(i, cls)));
  }
  f.repair_all();
  for (NodeIndex i = 1; i <= 400; ++i) {
    if (const auto value = f.store.get_copy(BlockKey::data(i))) {
      ASSERT_EQ(*value, f.truth(i)) << "node " << i;
    }
  }
}

}  // namespace
}  // namespace aec
