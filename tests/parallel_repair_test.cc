// RepairPlanner + ParallelRepairer properties.
//
// Three claims are verified against randomized erasures:
//   1. the planner's waves reproduce the synchronous-round semantics
//      exactly (an independent reference fixpoint is re-implemented here,
//      predicate by predicate);
//   2. the wave executor repairs exactly the reference's blocks, round by
//      round, back to their pristine bytes, leaves exactly the
//      reference's residue, and reports the same at 1, 2 and 8 workers —
//      including erasure rates heavy enough to leave residue;
//   3. the user-facing Archive honours its thread count on the repair
//      path without changing any stored byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>
#include <unordered_set>

#include "ae_test_util.h"
#include "common/rng.h"
#include "core/codec/repair_planner.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_repairer.h"
#include "tools/archive.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 24;

// --- shared helpers ---------------------------------------------------------

std::vector<Bytes> encode_random(const CodeParams& params, std::uint64_t n,
                                 std::uint64_t seed,
                                 pipeline::ConcurrentBlockStore& store) {
  std::vector<Bytes> truth = test::random_blocks(n, kBlockSize, seed);
  test::encode_into(params, kBlockSize, truth, store);
  return truth;
}

/// One repair pass over `store` on a `threads`-worker pool.
RepairReport repair_with(const CodeParams& params, std::uint64_t n,
                         BlockStore& store, std::size_t threads,
                         std::uint32_t max_rounds = 0) {
  pipeline::ThreadPool pool(threads);
  pipeline::ParallelRepairer repairer(params, n, kBlockSize, &store, &pool);
  return repairer.repair_all(max_rounds);
}

void expect_same_report(const RepairReport& a, const RepairReport& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.nodes_repaired_per_round, b.nodes_repaired_per_round);
  EXPECT_EQ(a.edges_repaired_per_round, b.edges_repaired_per_round);
  EXPECT_EQ(a.nodes_repaired_total, b.nodes_repaired_total);
  EXPECT_EQ(a.edges_repaired_total, b.edges_repaired_total);
  EXPECT_EQ(a.nodes_unrecovered, b.nodes_unrecovered);
  EXPECT_EQ(a.edges_unrecovered, b.edges_unrecovered);
}

/// Erases a `rate` fraction of all blocks; deterministic for a seed.
void erase_random(const Lattice& lat, double rate, std::uint64_t seed,
                  BlockStore& store) {
  Rng rng(seed);
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    if (rng.bernoulli(rate)) store.erase(BlockKey::data(i));
    for (StrandClass cls : lat.params().classes())
      if (rng.bernoulli(rate))
        store.erase(BlockKey::parity(lat.output_edge(i, cls)));
  }
}

void copy_store(const pipeline::ConcurrentBlockStore& from, BlockStore& to) {
  from.for_each([&](const BlockKey& key, BytesView value) {
    to.put(key, Bytes(value.begin(), value.end()));
  });
}

bool block_key_less(const BlockKey& a, const BlockKey& b) {
  return std::tuple(a.kind, a.cls, a.index) <
         std::tuple(b.kind, b.cls, b.index);
}

std::vector<BlockKey> sorted(std::vector<BlockKey> keys) {
  std::sort(keys.begin(), keys.end(), block_key_less);
  return keys;
}

// --- independent reference: the synchronous-round fixpoint ------------------
// Deliberately re-implemented from the paper's repair rules (one XOR of
// two available blocks, rounds decided against round-start availability)
// rather than calling the planner, so planner bugs cannot self-certify.

struct ReferenceRounds {
  std::vector<std::vector<BlockKey>> rounds;
  std::vector<BlockKey> residue;
};

ReferenceRounds reference_rounds(const Lattice& lat,
                                 const BlockStore& store) {
  std::unordered_set<BlockKey, BlockKeyHash> missing;
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    if (!store.contains(BlockKey::data(i)))
      missing.insert(BlockKey::data(i));
    for (StrandClass cls : lat.params().classes()) {
      const BlockKey pk = BlockKey::parity(lat.output_edge(i, cls));
      if (!store.contains(pk)) missing.insert(pk);
    }
  }
  const auto ok = [&](const BlockKey& key) { return !missing.contains(key); };
  const auto node_ok = [&](NodeIndex i) {
    for (StrandClass cls : lat.params().classes()) {
      const auto in = lat.input_edge(i, cls);
      const bool in_ok = !in || ok(BlockKey::parity(*in));
      if (in_ok && ok(BlockKey::parity(lat.output_edge(i, cls))))
        return true;
    }
    return false;
  };
  const auto edge_ok = [&](Edge e) {
    const auto in = lat.input_edge(e.tail, e.cls);
    if ((!in || ok(BlockKey::parity(*in))) && ok(BlockKey::data(e.tail)))
      return true;
    const NodeIndex j = lat.edge_head(e);
    return lat.is_valid_node(j) && ok(BlockKey::data(j)) &&
           ok(BlockKey::parity(lat.output_edge(j, e.cls)));
  };

  ReferenceRounds ref;
  while (!missing.empty()) {
    std::vector<BlockKey> round;
    for (const BlockKey& key : missing) {
      const bool repairable =
          key.is_data() ? node_ok(key.index) : edge_ok(key.edge());
      if (repairable) round.push_back(key);
    }
    if (round.empty()) break;
    for (const BlockKey& key : round) missing.erase(key);
    ref.rounds.push_back(std::move(round));
  }
  ref.residue.assign(missing.begin(), missing.end());
  return ref;
}

// --- 1. planner waves == reference round structure -------------------------

using SweepParam = std::tuple<int, int, int, int>;  // alpha, s, p, loss %

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [a, s, p, r] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p) + "_loss" + std::to_string(r);
}

class RepairPlannerProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RepairPlannerProperty, WavesMatchReferenceRoundStructure) {
  const auto [a, s, p, loss] = GetParam();
  const CodeParams params(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(p));
  const std::uint64_t n = 400;
  pipeline::ConcurrentBlockStore store;
  encode_random(params, n, 11, store);
  const Lattice lat(params, n, Lattice::Boundary::kOpen);
  erase_random(lat, loss / 100.0, 77 + static_cast<std::uint64_t>(loss),
               store);

  const RepairPlanner planner(&lat);
  AvailabilityMap avail = planner.snapshot(store);
  const RepairPlan plan = planner.plan(avail);
  const ReferenceRounds ref = reference_rounds(lat, store);

  ASSERT_EQ(plan.waves.size(), ref.rounds.size());
  for (std::size_t w = 0; w < plan.waves.size(); ++w) {
    std::vector<BlockKey> wave_keys;
    for (const RepairStep& step : plan.waves[w])
      wave_keys.push_back(step.key);
    EXPECT_EQ(sorted(std::move(wave_keys)), sorted(ref.rounds[w]))
        << "wave " << w;
  }
  EXPECT_EQ(sorted(plan.residue), sorted(ref.residue));

  // The executed report is a projection of the same plan.
  const RepairReport report = repair_with(params, n, store, 1);
  EXPECT_EQ(report.rounds, plan.rounds());
  EXPECT_EQ(report.nodes_repaired_total, plan.nodes_planned);
  EXPECT_EQ(report.edges_repaired_total, plan.edges_planned);
  EXPECT_EQ(report.nodes_unrecovered + report.edges_unrecovered,
            plan.residue.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairPlannerProperty,
    ::testing::Values(SweepParam{1, 1, 0, 20}, SweepParam{2, 2, 5, 15},
                      SweepParam{3, 2, 5, 10}, SweepParam{3, 2, 5, 30},
                      SweepParam{3, 2, 5, 55}, SweepParam{3, 5, 5, 10},
                      SweepParam{3, 5, 5, 35}, SweepParam{3, 5, 5, 55}),
    sweep_name);

TEST(RepairPlanner, MaxRoundsCapMatchesExecutedReport) {
  // A contiguous AE(1) parity run needs ~6 rounds; capping at 2 must
  // leave the inner blocks as (repairable) residue, identically in the
  // plan and in the executed report.
  const CodeParams params = CodeParams::single();
  pipeline::ConcurrentBlockStore store;
  encode_random(params, 60, 3, store);
  const Lattice lat(params, 60, Lattice::Boundary::kOpen);
  for (NodeIndex i = 20; i <= 30; ++i)
    store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, i}));

  const RepairPlanner planner(&lat);
  AvailabilityMap avail = planner.snapshot(store);
  const RepairPlan plan = planner.plan(avail, RepairPolicy::kFull, 2);
  EXPECT_EQ(plan.rounds(), 2u);
  EXPECT_EQ(plan.edges_planned, 4u);  // two per side per round
  EXPECT_EQ(plan.residue.size(), 7u);

  const RepairReport report = repair_with(params, 60, store, 1, 2);
  EXPECT_EQ(report.rounds, 2u);
  EXPECT_EQ(report.edges_repaired_total, 4u);
  EXPECT_EQ(report.edges_unrecovered, 7u);
}

TEST(RepairPlanner, MinimalPolicySkipsParitiesAwayFromMissingData) {
  // Data intact, one parity missing: full maintenance repairs it,
  // minimal maintenance leaves it alone (paper §V-C-2).
  const CodeParams params(3, 2, 5);
  pipeline::ConcurrentBlockStore store;
  encode_random(params, 100, 5, store);
  const Lattice lat(params, 100, Lattice::Boundary::kOpen);
  store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 40}));

  const RepairPlanner planner(&lat);
  AvailabilityMap full = planner.snapshot(store);
  AvailabilityMap minimal = full;
  EXPECT_EQ(planner.plan(full, RepairPolicy::kFull).edges_planned, 1u);
  const RepairPlan plan = planner.plan(minimal, RepairPolicy::kMinimal);
  EXPECT_EQ(plan.edges_planned, 0u);
  EXPECT_EQ(plan.residue.size(), 1u);
}

// --- 2. parallel executor byte-identity -------------------------------------

using ThreadParam = std::tuple<int, int, int, int, int>;  // a,s,p,loss,threads

std::string thread_name(const ::testing::TestParamInfo<ThreadParam>& info) {
  const auto [a, s, p, r, t] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p) + "_loss" + std::to_string(r) + "_t" +
         std::to_string(t);
}

class ParallelRepairerEquivalence
    : public ::testing::TestWithParam<ThreadParam> {};

TEST_P(ParallelRepairerEquivalence, MatchesPristineAndReferenceRounds) {
  const auto [a, s, p, loss, threads] = GetParam();
  const CodeParams params(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(p));
  const std::uint64_t n = 600;
  pipeline::ConcurrentBlockStore pristine;
  encode_random(params, n, 42, pristine);
  const Lattice lat(params, n, Lattice::Boundary::kOpen);

  // Same erasure pattern on both stores.
  pipeline::ConcurrentBlockStore one_worker_store;
  pipeline::ConcurrentBlockStore store;
  copy_store(pristine, one_worker_store);
  copy_store(pristine, store);
  erase_random(lat, loss / 100.0, 1000 + static_cast<std::uint64_t>(loss),
               one_worker_store);
  erase_random(lat, loss / 100.0, 1000 + static_cast<std::uint64_t>(loss),
               store);
  ASSERT_EQ(one_worker_store.size(), store.size());
  const ReferenceRounds ref = reference_rounds(lat, store);

  const RepairReport report = repair_with(params, n, store,
                                          static_cast<std::size_t>(threads));

  // Round structure and residue of the independent reference.
  ASSERT_EQ(report.rounds, ref.rounds.size());
  std::uint64_t nodes_total = 0;
  std::uint64_t edges_total = 0;
  for (std::size_t w = 0; w < ref.rounds.size(); ++w) {
    const auto nodes = static_cast<std::uint64_t>(
        std::count_if(ref.rounds[w].begin(), ref.rounds[w].end(),
                      [](const BlockKey& key) { return key.is_data(); }));
    EXPECT_EQ(report.nodes_repaired_per_round[w], nodes) << "round " << w;
    EXPECT_EQ(report.edges_repaired_per_round[w],
              ref.rounds[w].size() - nodes)
        << "round " << w;
    nodes_total += nodes;
    edges_total += ref.rounds[w].size() - nodes;
  }
  EXPECT_EQ(report.nodes_repaired_total, nodes_total);
  EXPECT_EQ(report.edges_repaired_total, edges_total);
  const auto residue_nodes = static_cast<std::uint64_t>(
      std::count_if(ref.residue.begin(), ref.residue.end(),
                    [](const BlockKey& key) { return key.is_data(); }));
  EXPECT_EQ(report.nodes_unrecovered, residue_nodes);
  EXPECT_EQ(report.edges_unrecovered, ref.residue.size() - residue_nodes);

  // Every block the reference repairs is back, byte-identical to the
  // pristine store; exactly the residue is still missing.
  const std::unordered_set<BlockKey, BlockKeyHash> residue(
      ref.residue.begin(), ref.residue.end());
  ASSERT_EQ(store.size(), pristine.size() - residue.size());
  pristine.for_each([&](const BlockKey& key, BytesView value) {
    const auto copy = store.get_copy(key);
    ASSERT_EQ(copy.has_value(), !residue.contains(key)) << to_string(key);
    if (copy) {
      ASSERT_EQ(*copy, Bytes(value.begin(), value.end())) << to_string(key);
    }
  });

  // The same report and the same store on one worker.
  expect_same_report(repair_with(params, n, one_worker_store, 1), report);
  test::expect_stores_identical(one_worker_store, store);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelRepairerEquivalence,
    ::testing::Values(
        // AE(3,2,5) and AE(3,5,5) at benign, heavy (residue-producing)
        // and extreme loss, each at 1/2/8 threads.
        ThreadParam{3, 2, 5, 10, 1}, ThreadParam{3, 2, 5, 10, 2},
        ThreadParam{3, 2, 5, 10, 8}, ThreadParam{3, 2, 5, 45, 1},
        ThreadParam{3, 2, 5, 45, 2}, ThreadParam{3, 2, 5, 45, 8},
        ThreadParam{3, 5, 5, 30, 1}, ThreadParam{3, 5, 5, 30, 2},
        ThreadParam{3, 5, 5, 30, 8}, ThreadParam{3, 5, 5, 60, 2},
        ThreadParam{3, 5, 5, 60, 8}, ThreadParam{1, 1, 0, 25, 8}),
    thread_name);

TEST(ParallelRepairer, ReadNodeRepairsThroughDamagedNeighbourhood) {
  const CodeParams params(3, 2, 5);
  const std::uint64_t n = 200;
  pipeline::ConcurrentBlockStore pristine;
  const std::vector<Bytes> truth = encode_random(params, n, 9, pristine);
  const Lattice lat(params, n, Lattice::Boundary::kOpen);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pipeline::ConcurrentBlockStore store;
    copy_store(pristine, store);
    store.erase(BlockKey::data(100));
    for (const Edge& e : lat.incident_edges(100))
      store.erase(BlockKey::parity(e));

    pipeline::ThreadPool pool(threads);
    pipeline::ParallelRepairer repairer(params, n, kBlockSize, &store, &pool);
    const auto value = repairer.read_node(100);
    ASSERT_TRUE(value) << threads << " threads";
    EXPECT_EQ(value, truth[99]);
  }
}

TEST(ParallelRepairer, ReadNodeIrrecoverableReturnsNullopt) {
  const CodeParams params = CodeParams::single();
  pipeline::ConcurrentBlockStore pristine;
  encode_random(params, 60, 2, pristine);
  pipeline::ConcurrentBlockStore store;
  copy_store(pristine, store);
  store.erase(BlockKey::data(30));
  store.erase(BlockKey::data(31));
  store.erase(BlockKey::parity(Edge{StrandClass::kHorizontal, 30}));

  pipeline::ThreadPool pool(4);
  pipeline::ParallelRepairer repairer(params, 60, kBlockSize, &store, &pool);
  EXPECT_FALSE(repairer.read_node(30));
  EXPECT_FALSE(repairer.read_node(31));
}

TEST(ParallelRepairer, ReportCarriesThroughput) {
  const CodeParams params(3, 2, 5);
  pipeline::ConcurrentBlockStore pristine;
  encode_random(params, 300, 8, pristine);
  pipeline::ConcurrentBlockStore store;
  copy_store(pristine, store);
  const Lattice lat(params, 300, Lattice::Boundary::kOpen);
  erase_random(lat, 0.2, 5, store);

  pipeline::ThreadPool pool(2);
  pipeline::ParallelRepairer repairer(params, 300, kBlockSize, &store, &pool);
  const RepairReport report = repairer.repair_all();
  EXPECT_GT(report.blocks_repaired_total(), 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.blocks_per_second(), 0.0);
}

// --- 3. archive-level parallel scrub/get ------------------------------------

namespace fs = std::filesystem;

class ArchiveParallelRepair : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aec_parallel_repair_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ArchiveParallelRepair, ScrubAndGetHonourThreadCount) {
  const fs::path serial_root = root_ / "serial";
  const fs::path parallel_root = root_ / "parallel";
  Rng rng(31);
  const Bytes payload = rng.random_block(16000);

  for (const fs::path& r : {serial_root, parallel_root}) {
    auto archive = tools::Archive::create(r, CodeParams(3, 2, 5).name(), 128);
    archive->add_file("payload", payload);
  }

  auto serial = tools::Archive::open(serial_root, Engine::serial());
  auto parallel = tools::Archive::open(parallel_root, Engine::with_threads(4));
  EXPECT_EQ(serial->inject_damage(0.25, 7), parallel->inject_damage(0.25, 7));

  const tools::ScrubReport a = serial->scrub();
  const tools::ScrubReport b = parallel->scrub();
  EXPECT_EQ(b.repair.rounds, a.repair.rounds);
  EXPECT_EQ(b.repair.nodes_repaired_total, a.repair.nodes_repaired_total);
  EXPECT_EQ(b.repair.edges_repaired_total, a.repair.edges_repaired_total);
  EXPECT_EQ(b.repair.nodes_unrecovered, a.repair.nodes_unrecovered);
  EXPECT_EQ(serial->missing_blocks(), parallel->missing_blocks());

  EXPECT_EQ(serial->read_file("payload"), payload);
  EXPECT_EQ(parallel->read_file("payload"), payload);
}

TEST_F(ArchiveParallelRepair, ParallelGetRepairsLazilyWithoutScrub) {
  Rng rng(13);
  const Bytes payload = rng.random_block(8000);
  {
    auto archive =
        tools::Archive::create(root_, CodeParams(3, 2, 5).name(), 128);
    archive->add_file("payload", payload);
  }
  auto archive = tools::Archive::open(root_, Engine::with_threads(4));
  archive->inject_damage(0.15, 3);
  EXPECT_EQ(archive->read_file("payload"), payload);
}

}  // namespace
}  // namespace aec
