// Open-lattice boundary behaviour: bootstrap inputs, dangling outputs,
// and the weak-extremity patterns of §IV-B-1, exercised at byte level.
#include <gtest/gtest.h>

#include "ae_test_util.h"
#include "core/codec/repair_planner.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 16;

struct Fixture : test::EncodedLattice {
  Fixture(CodeParams code, std::uint64_t count)
      : EncodedLattice(std::move(code), count, kBlockSize, 21) {}
};

TEST(Boundary, FirstBlockRepairsFromItsBootstrapParity) {
  // d1's input parities do not exist; p_{1,j} = d1, so d1 repairs from
  // the output edge alone (XOR with the virtual zero block).
  Fixture f(CodeParams(3, 2, 5), 50);
  f.store.erase(BlockKey::data(1));
  const Lattice lat = f.lattice();
  const auto step = RepairPlanner(&lat).plan_node_repair(f.store, 1);
  ASSERT_TRUE(step.has_value());
  EXPECT_FALSE(repair_step_inputs(lat, *step).input.has_value());
  EXPECT_EQ(f.repair_all().rounds, 1u);
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(1)), f.blocks[0]);
}

TEST(Boundary, LastNodeLossWithItsParitiesIsFatalForAe1) {
  // Open-chain extremity: {d_n, p_n} is a 2-failure loss (the paper's
  // weak extremity) because p_n has no successor to repair through.
  Fixture f(CodeParams::single(), 50);
  f.store.erase(BlockKey::data(50));
  f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 50}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 1u);
  EXPECT_EQ(report.edges_unrecovered, 1u);
}

TEST(Boundary, InteriorSurvivesTheSamePattern) {
  Fixture f(CodeParams::single(), 50);
  f.store.erase(BlockKey::data(25));
  f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 25}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  EXPECT_EQ(report.edges_unrecovered, 0u);
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(25)), f.blocks[24]);
}

TEST(Boundary, AlphaThreeToleratesExtremityDoubleFailure) {
  // With α = 3 the same extremity double failure has two more strands
  // to repair through.
  Fixture f(CodeParams(3, 2, 5), 50);
  f.store.erase(BlockKey::data(50));
  f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 50}));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  EXPECT_EQ(*f.store.get_copy(BlockKey::data(50)), f.blocks[49]);
}

TEST(Boundary, WholePrefixErasureRecovers) {
  // Erase ALL data blocks; parities alone must rebuild the archive
  // front-to-back through the bootstrap.
  Fixture f(CodeParams(2, 2, 2), 40);
  for (NodeIndex i = 1; i <= 40; ++i) f.store.erase(BlockKey::data(i));
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  for (NodeIndex i = 1; i <= 40; ++i)
    EXPECT_EQ(*f.store.get_copy(BlockKey::data(i)),
              f.blocks[static_cast<std::size_t>(i - 1)]);
}

TEST(Boundary, ParityOnlyArchiveStillDecodes) {
  // The paper's "systems that only store parities" option (rate 1/α):
  // all data erased AND every other H parity erased.
  Fixture f(CodeParams(3, 2, 5), 60);
  for (NodeIndex i = 1; i <= 60; ++i) {
    f.store.erase(BlockKey::data(i));
    if (i % 2 == 0)
      f.store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, i}));
  }
  const RepairReport report = f.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
}

TEST(Boundary, TinyLattices) {
  for (auto params : {CodeParams::single(), CodeParams(2, 1, 1),
                      CodeParams(3, 2, 5)}) {
    Fixture f(params, 1);  // a single block
    f.store.erase(BlockKey::data(1));
    EXPECT_TRUE(f.read_node(1)) << params.name();
    EXPECT_EQ(*f.store.get_copy(BlockKey::data(1)), f.blocks[0]);
  }
}

}  // namespace
}  // namespace aec
