// HealthMonitor contract: the incrementally maintained margin map must
// equal a brute-force full-lattice recomputation after any delta
// sequence (the O(damage) fast path can never drift from the oracle),
// vulnerability (margin 0) must coincide with the repair planner's
// node_repairable predicate, and the counts-only mode must keep a
// correct damage census for non-lattice codecs. As the store's observer
// the monitor is also the archive's one record of what is missing
// (HealthCensusTest): its missing set must equal a full-store rescan,
// walk in the planner's block order, and feed plans identical to the
// scanning path's. Every oracle here reads the store or a set the test
// keeps itself, never the census under test. The HealthMonitor and
// HealthCensus suites also run under the TSan CI job (notifications
// arrive from many threads, some on the lock-free path).
#include "obs/health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ae_test_util.h"
#include "common/rng.h"
#include "core/codec/repair_planner.h"
#include "core/lattice/lattice.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/thread_pool.h"

namespace aec::obs {
namespace {

/// Logger sinking to a tmpfile so health transitions don't spam the
/// test log (the monitor warns on every vulnerability flip).
Logger& quiet_logger() {
  static std::FILE* sink = std::tmpfile();
  static Logger logger(sink != nullptr ? sink : stderr);
  return logger;
}

/// Every key an open AE lattice of n nodes stores, in block order, plus
/// a few orphans past the tail (the monitor holds them in its overflow
/// set until the lattice grows over them).
std::vector<BlockKey> key_universe(const CodeParams& params,
                                   std::uint64_t n_nodes,
                                   std::uint64_t orphan_overhang = 0) {
  std::vector<BlockKey> keys;
  for (NodeIndex i = 1;
       static_cast<std::uint64_t>(i) <= n_nodes + orphan_overhang; ++i) {
    keys.push_back(BlockKey::data(i));
    for (const StrandClass cls : params.classes())
      keys.push_back(BlockKey::parity(Edge{cls, i}));
  }
  return keys;
}

/// The planner's block order, kept by the test: ascending index, data
/// before parity, parities in strand-class order.
bool block_order_less(const BlockKey& a, const BlockKey& b) {
  return std::tie(a.index, a.kind, a.cls) < std::tie(b.index, b.kind, b.cls);
}

/// Feeds a monitor like a store would and keeps the test's own copy of
/// the missing set — the oracle's input.
class Tracked {
 public:
  explicit Tracked(HealthMonitor& mon) : mon_(mon) {}

  void on_block(const BlockKey& key, bool present) {
    mon_.on_block(key, present);
    if (present)
      missing_.erase(key);
    else
      missing_.insert(key);
  }
  std::vector<BlockKey> missing() const {
    return {missing_.begin(), missing_.end()};
  }

 private:
  HealthMonitor& mon_;
  std::unordered_set<BlockKey, BlockKeyHash> missing_;
};

TEST(HealthMonitorTest, CountsOnlyModeWithoutLattice) {
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  EXPECT_FALSE(mon.lattice_configured());

  mon.on_block(BlockKey::data(3), /*present=*/false);
  mon.on_block(BlockKey::parity(Edge{StrandClass::kHorizontal, 2}),
               /*present=*/false);
  HealthSummary s = mon.summary();
  EXPECT_FALSE(s.lattice_mode);
  EXPECT_EQ(s.alpha, 0u);
  EXPECT_EQ(s.data_missing, 1u);
  EXPECT_EQ(s.parity_missing, 1u);
  EXPECT_EQ(s.degraded_blocks, 0u);  // no margins without a lattice
  EXPECT_TRUE(mon.worst(10).empty());
  EXPECT_TRUE(s.degraded());

  mon.on_block(BlockKey::data(3), /*present=*/true);
  mon.on_block(BlockKey::parity(Edge{StrandClass::kHorizontal, 2}),
               /*present=*/true);
  s = mon.summary();
  EXPECT_EQ(s.data_missing, 0u);
  EXPECT_EQ(s.parity_missing, 0u);
  EXPECT_FALSE(s.degraded());
  // The census gauges publish even without margins.
  EXPECT_EQ(reg.gauge("health.data_missing")->value(), 0);
}

TEST(HealthMonitorTest, ParityLossDegradesBothIncidentBlocks) {
  const CodeParams params(3, 2, 5);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  mon.configure_lattice(params, 50);

  const Edge edge{StrandClass::kHorizontal, 20};
  mon.on_block(BlockKey::parity(edge), /*present=*/false);

  const Lattice lattice(params, 50, Lattice::Boundary::kOpen);
  const NodeIndex head = lattice.edge_head(edge);
  const auto worst = mon.worst(10);
  ASSERT_EQ(worst.size(), 2u);  // exactly tail + head, nothing else
  EXPECT_EQ(worst[0].margin, params.alpha() - 1);
  EXPECT_EQ(worst[1].margin, params.alpha() - 1);
  EXPECT_EQ(worst[0].index, std::min<NodeIndex>(20, head));
  EXPECT_EQ(worst[1].index, std::max<NodeIndex>(20, head));

  const HealthSummary s = mon.summary();
  EXPECT_EQ(s.degraded_blocks, 2u);
  EXPECT_EQ(s.vulnerable_blocks, 0u);
  EXPECT_EQ(s.min_margin, params.alpha() - 1);
  EXPECT_EQ(reg.gauge("health.degraded_blocks")->value(), 2);
  EXPECT_EQ(reg.gauge("health.min_margin")->value(),
            static_cast<std::int64_t>(params.alpha() - 1));

  mon.on_block(BlockKey::parity(edge), /*present=*/true);
  EXPECT_TRUE(mon.worst(10).empty());
  EXPECT_EQ(mon.summary().min_margin, params.alpha());
}

TEST(HealthMonitorTest, IncrementalMatchesFullRecomputeUnderRandomChurn) {
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 120;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  Tracked tracked(mon);
  mon.configure_lattice(params, kNodes);

  const std::vector<BlockKey> keys =
      key_universe(params, kNodes, /*orphan_overhang=*/8);
  std::mt19937_64 rng(0xAEC0DE);
  for (int step = 1; step <= 600; ++step) {
    const BlockKey& key = keys[rng() % keys.size()];
    // Biased toward damage so the degraded set actually grows; repeats
    // of a key's current state are no deltas.
    tracked.on_block(key, /*present=*/(rng() % 3) == 0);
    if (step % 50 != 0) continue;
    const auto expected =
        compute_degraded_full(params, kNodes, tracked.missing());
    EXPECT_EQ(mon.degraded_all(), expected) << "after step " << step;
    // Census invariants against the oracle's view of the same damage.
    const HealthSummary s = mon.summary();
    std::uint64_t vulnerable = 0;
    for (const BlockHealth& b : expected)
      if (b.margin == 0) ++vulnerable;
    EXPECT_EQ(s.vulnerable_blocks, vulnerable);
    EXPECT_EQ(s.degraded_blocks, expected.size());
  }
}

TEST(HealthMonitorTest, VulnerableIffPlannerSaysUnrepairable) {
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 80;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  Tracked tracked(mon);
  mon.configure_lattice(params, kNodes);

  const std::vector<BlockKey> keys = key_universe(params, kNodes);
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < keys.size() / 4; ++i)
    tracked.on_block(keys[rng() % keys.size()], /*present=*/false);

  const Lattice lattice(params, kNodes, Lattice::Boundary::kOpen);
  const RepairPlanner planner(&lattice);
  Availability avail(params, kNodes);
  for (const BlockKey& key : tracked.missing()) avail.set(key, false);

  std::unordered_map<NodeIndex, std::uint32_t> margins;
  for (const BlockHealth& b : mon.degraded_all()) margins[b.index] = b.margin;
  for (NodeIndex i = 1; static_cast<std::uint64_t>(i) <= kNodes; ++i) {
    if (!avail.data_ok(i)) continue;  // damage, not vulnerability
    const auto it = margins.find(i);
    const std::uint32_t margin =
        it == margins.end() ? params.alpha() : it->second;
    // margin 0 ⇔ no single-XOR repair path: exactly the planner's
    // node_repairable predicate (Fig. 12's "vulnerable data").
    EXPECT_EQ(margin > 0, planner.node_repairable(i, avail)) << "node " << i;
  }
}

TEST(HealthMonitorTest, GrowExtendsLatticeOverBufferedOrphans) {
  const CodeParams params(3, 2, 5);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  Tracked tracked(mon);
  mon.configure_lattice(params, 10);

  // Damage whose blast radius crosses the current tail: the H output
  // edge of node 10 heads at 10+s=12, outside the 10-node lattice, and
  // data 14 doesn't exist yet at all.
  tracked.on_block(BlockKey::parity(Edge{StrandClass::kHorizontal, 10}),
                   false);
  tracked.on_block(BlockKey::data(14), false);
  EXPECT_EQ(mon.degraded_all(),
            compute_degraded_full(params, 10, tracked.missing()));

  mon.grow_to(15);
  EXPECT_EQ(mon.n_nodes(), 15u);
  const auto expected = compute_degraded_full(params, 15, tracked.missing());
  EXPECT_EQ(mon.degraded_all(), expected);
  // Node 12 is now in range and lost its H input parity.
  bool found_12 = false;
  for (const BlockHealth& b : expected) found_12 |= b.index == 12;
  EXPECT_TRUE(found_12);
  EXPECT_EQ(mon.summary().data_missing, 1u);  // data 14 counts now

  // Shrinking is ignored (the archive never shrinks mid-session).
  mon.grow_to(5);
  EXPECT_EQ(mon.n_nodes(), 15u);
}

TEST(HealthMonitorTest, KeysOutsideTheCensusWaitUntilTheLatticeCoversThem) {
  // AE(2,2,5) uses the H and RH classes only. Index 0, an LH parity and
  // keys past the tail have no byte in the census: they leave it
  // untouched until grow_to covers them.
  const CodeParams params(2, 2, 5);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  Tracked tracked(mon);
  mon.configure_lattice(params, 100);

  const BlockKey d150 = BlockKey::data(150);
  const BlockKey h150 = BlockKey::parity(Edge{StrandClass::kHorizontal, 150});
  const BlockKey lh = BlockKey::parity(Edge{StrandClass::kLeftHanded, 40});
  for (const BlockKey& key : {BlockKey::data(0), lh, d150, h150})
    tracked.on_block(key, /*present=*/false);
  HealthSummary s = mon.summary();
  EXPECT_EQ(s.data_missing, 0u);
  EXPECT_EQ(s.parity_missing, 0u);
  EXPECT_EQ(s.degraded_blocks, 0u);
  EXPECT_TRUE(mon.degraded_all().empty());

  mon.grow_to(200);
  s = mon.summary();
  EXPECT_EQ(s.data_missing, 1u);    // d150
  EXPECT_EQ(s.parity_missing, 1u);  // p(H,150); the LH parity never counts
  const auto expected = compute_degraded_full(params, 200, tracked.missing());
  EXPECT_FALSE(expected.empty());  // p(H,150)'s head lost a path
  EXPECT_EQ(mon.degraded_all(), expected);
  EXPECT_EQ(s.degraded_blocks, expected.size());

  for (const BlockKey& key : {BlockKey::data(0), lh, d150, h150})
    tracked.on_block(key, /*present=*/true);
  s = mon.summary();
  EXPECT_EQ(s.data_missing, 0u);
  EXPECT_EQ(s.parity_missing, 0u);
  EXPECT_EQ(s.degraded_blocks, 0u);
  EXPECT_TRUE(mon.degraded_all().empty());
  EXPECT_EQ(s.min_margin, params.alpha());
}

TEST(HealthMonitorTest, ClearThenReseedRebuildsAfterOutOfBandDamage) {
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 60;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  mon.configure_lattice(params, kNodes);
  const std::vector<BlockKey> keys = key_universe(params, kNodes);
  // A stale view the store no longer matches…
  for (std::size_t k = 0; k < keys.size(); k += 9)
    mon.on_block(keys[k], /*present=*/false);

  // …and damage that happened while the monitor was NOT listening
  // (archive closed, blocks deleted behind an open store): a reseed (the
  // seeding walk at open, reindex) must reproduce it wholesale.
  std::unordered_set<BlockKey, BlockKeyHash> damage;
  std::mt19937_64 rng(11);
  for (std::size_t i = 0; i < keys.size() / 5; ++i)
    damage.insert(keys[rng() % keys.size()]);
  mon.seed(std::vector<BlockKey>(damage.begin(), damage.end()));
  EXPECT_EQ(mon.degraded_all(),
            compute_degraded_full(
                params, kNodes,
                std::vector<BlockKey>(damage.begin(), damage.end())));

  // A second seed with nothing missing (a healed store) drops every
  // stale entry.
  mon.seed({});
  EXPECT_TRUE(mon.degraded_all().empty());
  EXPECT_EQ(mon.summary().data_missing, 0u);
  EXPECT_EQ(mon.summary().parity_missing, 0u);
}

TEST(HealthMonitorTest, WorstRanksAscendingMarginThenIndex) {
  const CodeParams params(3, 2, 5);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  mon.configure_lattice(params, 40);

  // Strip node 20 of all three strand classes' parities → margin 0;
  // its neighbours lose one path each.
  const Lattice lattice(params, 40, Lattice::Boundary::kOpen);
  for (const StrandClass cls : params.classes()) {
    mon.on_block(BlockKey::parity(lattice.output_edge(20, cls)), false);
    if (const auto input = lattice.input_edge(20, cls))
      mon.on_block(BlockKey::parity(*input), false);
  }
  const auto all = mon.degraded_all();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].index, 20);
  EXPECT_EQ(all[0].margin, 0u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const bool ordered =
        all[i - 1].margin < all[i].margin ||
        (all[i - 1].margin == all[i].margin &&
         all[i - 1].index < all[i].index);
    EXPECT_TRUE(ordered) << "rank " << i;
  }
  // worst(n) is a prefix of the full ranking.
  const auto top2 = mon.worst(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], all[0]);
  EXPECT_EQ(top2[1], all[1]);
  EXPECT_EQ(mon.summary().vulnerable_blocks, 1u);
  EXPECT_EQ(reg.gauge("health.vulnerable_blocks")->value(), 1);
  EXPECT_EQ(reg.gauge("health.margin0.blocks")->value(), 1);
}

TEST(HealthMonitorTest, MarginZeroWarningCarriesNoCount) {
  // A bulk announcement (a node failure) arrives one key at a time, so
  // the census turns vulnerable at its first one or two blocks. The
  // warning logs the transition once, with no count to understate the
  // damage; the gauge carries the count.
  const CodeParams params(3, 2, 5);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  Logger logger(sink);
  logger.set_rate_limit_ms(0);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &logger);
  mon.configure_lattice(params, 60);
  std::vector<BlockKey> batch;  // every parity whose tail is in [20, 30)
  for (NodeIndex i = 20; i < 30; ++i)
    for (const StrandClass cls : params.classes())
      batch.push_back(BlockKey::parity(Edge{cls, i}));
  for (const BlockKey& key : batch) mon.on_block(key, /*present=*/false);
  const std::uint64_t vulnerable = mon.summary().vulnerable_blocks;
  EXPECT_GE(vulnerable, 10u);
  EXPECT_EQ(reg.gauge("health.vulnerable_blocks")->value(),
            static_cast<std::int64_t>(vulnerable));
  for (const BlockKey& key : batch) mon.on_block(key, /*present=*/true);
  EXPECT_EQ(mon.summary().vulnerable_blocks, 0u);

  std::fflush(sink);
  std::rewind(sink);
  std::vector<std::string> lines;
  for (char buf[512]; std::fgets(buf, sizeof buf, sink) != nullptr;)
    lines.emplace_back(buf);
  std::fclose(sink);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"level\":\"warn\""), std::string::npos);
  const std::size_t msg = lines[0].find("\"msg\":\"");
  ASSERT_NE(msg, std::string::npos);
  std::string text = lines[0].substr(msg, lines[0].find('"', msg + 7) - msg);
  const std::size_t margin = text.find("margin 0");
  ASSERT_NE(margin, std::string::npos) << text;
  text.erase(margin, 8);
  EXPECT_EQ(text.find_first_of("0123456789"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[1].find("no vulnerable data blocks remain"),
            std::string::npos);
}

TEST(HealthMonitorTest, SeedPublishesOnceAndLogsNoTransition) {
  // Seeding reports what was already true at open: the gauges and the
  // delta count follow it, the log does not. Changes after it log.
  const CodeParams params(3, 2, 5);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  Logger logger(sink);
  logger.set_rate_limit_ms(0);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &logger);
  mon.configure_lattice(params, 60);
  std::vector<BlockKey> batch;  // every parity whose tail is in [20, 30)
  for (NodeIndex i = 20; i < 30; ++i)
    for (const StrandClass cls : params.classes())
      batch.push_back(BlockKey::parity(Edge{cls, i}));

  mon.seed(batch);
  const std::uint64_t vulnerable = mon.summary().vulnerable_blocks;
  EXPECT_GE(vulnerable, 10u);
  EXPECT_EQ(reg.gauge("health.vulnerable_blocks")->value(),
            static_cast<std::int64_t>(vulnerable));
  EXPECT_EQ(reg.gauge("health.parity_missing")->value(),
            static_cast<std::int64_t>(batch.size()));
  EXPECT_EQ(reg.counter("health.deltas")->value(), batch.size());
  EXPECT_EQ(mon.degraded_all(), compute_degraded_full(params, 60, batch));
  EXPECT_EQ(logger.lines_written(), 0u);

  // A reseed to the same state, and one to a clean state, log nothing.
  mon.seed(batch);
  mon.seed({});
  EXPECT_EQ(mon.summary().vulnerable_blocks, 0u);
  EXPECT_EQ(logger.lines_written(), 0u);

  // Deltas after a seed log each transition once.
  for (const BlockKey& key : batch) mon.on_block(key, /*present=*/false);
  for (const BlockKey& key : batch) mon.on_block(key, /*present=*/true);
  EXPECT_EQ(logger.lines_written(), 2u);
  std::fclose(sink);
}

TEST(HealthMonitorTest, ConcurrentDeltasConvergeToFullRecompute) {
  // Notifications arrive from many threads at once (parallel scrub
  // repairs, sharded-store puts). Each task owns a disjoint key slice
  // and ends it in a deterministic state, so after quiescing the monitor
  // must agree with the oracle exactly.
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 100;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  mon.configure_lattice(params, kNodes);

  const std::vector<BlockKey> keys = key_universe(params, kNodes);
  constexpr std::size_t kTasks = 8;
  {
    pipeline::ThreadPool pool(4);
    pipeline::ThreadPool::Group group;
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit(group, [&, t] {
        std::mt19937_64 rng(t);
        for (std::size_t k = t; k < keys.size(); k += kTasks) {
          // Churn, then settle: final state is a pure function of k.
          for (int round = 0; round < 4; ++round)
            mon.on_block(keys[k], /*present=*/(rng() % 2) == 0);
          mon.on_block(keys[k], /*present=*/k % 7 != 0);
        }
      });
    }
    pool.wait(group);
  }
  std::vector<BlockKey> settled;
  for (std::size_t k = 0; k < keys.size(); k += 7) settled.push_back(keys[k]);
  EXPECT_EQ(mon.degraded_all(), compute_degraded_full(params, kNodes, settled));
  const HealthSummary s = mon.summary();
  std::uint64_t data_missing = 0;
  std::uint64_t parity_missing = 0;
  for (const BlockKey& key : settled)
    key.is_data() ? ++data_missing : ++parity_missing;
  EXPECT_EQ(s.data_missing, data_missing);
  EXPECT_EQ(s.parity_missing, parity_missing);
}

// --- the census as the store's record of what is missing ------------------

TEST(HealthCensusTest, TracksRandomizedMutationSequences) {
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 32;
  constexpr std::uint64_t kNodes = 60;
  pipeline::ConcurrentBlockStore store;
  test::encode_into(params, kBlockSize,
                    test::random_blocks(kNodes, kBlockSize, 1), store);
  const std::vector<BlockKey> universe = key_universe(params, kNodes);

  MetricsRegistry reg;
  HealthMonitor census(&reg, &quiet_logger());
  census.configure_lattice(params, kNodes);
  store.set_observer(&census);

  Rng rng(99);
  for (int step = 0; step < 600; ++step) {
    const BlockKey key = universe[static_cast<std::size_t>(
        rng.uniform(universe.size()))];
    if (rng.bernoulli(0.5))
      store.erase(key);
    else
      store.put(key, Bytes(kBlockSize, static_cast<std::uint8_t>(step)));

    if (step % 50 != 49) continue;
    // Checkpoint: the incrementally maintained missing set must equal a
    // brute-force rescan of the whole store, walked in block order.
    std::vector<BlockKey> brute;
    for (const BlockKey& probe : universe) {
      const bool missing = !store.contains(probe);
      if (missing) brute.push_back(probe);
      EXPECT_EQ(census.is_missing(probe), missing) << to_string(probe);
    }
    EXPECT_EQ(census.missing_count(), brute.size());
    const std::vector<BlockKey> walked = census.missing_keys();
    EXPECT_TRUE(
        std::is_sorted(walked.begin(), walked.end(), block_order_less));
    EXPECT_EQ(walked, brute);
  }
}

TEST(HealthCensusTest, CensusFedPlanMatchesTheScanningPath) {
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 32;
  constexpr std::uint64_t kNodes = 200;
  pipeline::ConcurrentBlockStore store;
  test::encode_into(params, kBlockSize,
                    test::random_blocks(kNodes, kBlockSize, 2), store);
  const Lattice lat(params, kNodes, Lattice::Boundary::kOpen);
  const std::vector<BlockKey> universe = key_universe(params, kNodes);

  MetricsRegistry reg;
  HealthMonitor census(&reg, &quiet_logger());
  census.configure_lattice(params, kNodes);
  store.set_observer(&census);
  // Damage through the store API (the census follows along), plus one
  // orphan entry outside the lattice that the census-fed path must
  // ignore.
  Rng rng(7);
  for (const BlockKey& key : universe)
    if (rng.bernoulli(0.2)) store.erase(key);
  const BlockKey orphan = BlockKey::data(static_cast<NodeIndex>(kNodes) + 50);
  census.on_block(orphan, /*present=*/false);
  std::vector<BlockKey> census_missing = census.missing_keys();
  ASSERT_EQ(census_missing.back(), orphan);

  const RepairPlanner planner(&lat);
  Availability scan_avail = planner.snapshot(store);
  std::erase_if(census_missing, [&](const BlockKey& key) {
    return !lattice_expects(params, kNodes, key);
  });
  Availability census_avail(params, kNodes);
  for (const BlockKey& key : census_missing) census_avail.set(key, false);
  for (const BlockKey& key : universe)
    ASSERT_EQ(scan_avail.ok(key), census_avail.ok(key)) << to_string(key);

  const RepairPlan scan_plan = planner.plan(scan_avail);
  RepairPlan census_plan = planner.plan(census_avail);

  // Identical wave structure, step for step (key, strand, side), and
  // identical residue.
  ASSERT_EQ(census_plan.rounds(), scan_plan.rounds());
  for (std::size_t w = 0; w < scan_plan.waves.size(); ++w) {
    ASSERT_EQ(census_plan.waves[w].size(), scan_plan.waves[w].size())
        << "wave " << w;
    for (std::size_t j = 0; j < scan_plan.waves[w].size(); ++j) {
      EXPECT_EQ(census_plan.waves[w][j].key, scan_plan.waves[w][j].key);
      EXPECT_EQ(census_plan.waves[w][j].via, scan_plan.waves[w][j].via);
      EXPECT_EQ(census_plan.waves[w][j].from_head,
                scan_plan.waves[w][j].from_head);
    }
  }
  EXPECT_EQ(census_plan.residue, scan_plan.residue);
  EXPECT_EQ(census_plan.nodes_planned, scan_plan.nodes_planned);
  EXPECT_EQ(census_plan.edges_planned, scan_plan.edges_planned);

  // The repair flow itself: handed the census's keys, orphan included,
  // execute_repair_plan runs the scanning path's waves.
  std::vector<std::vector<RepairStep>> scan_waves;
  std::vector<std::vector<RepairStep>> census_waves;
  const RepairReport scan_report = execute_repair_plan(
      planner, store, std::nullopt,
      [&](const std::vector<RepairStep>& wave) { scan_waves.push_back(wave); });
  const RepairReport census_report = execute_repair_plan(
      planner, store, census.missing_keys(),
      [&](const std::vector<RepairStep>& wave) {
        census_waves.push_back(wave);
      });
  ASSERT_EQ(census_waves.size(), scan_waves.size());
  for (std::size_t w = 0; w < scan_waves.size(); ++w) {
    ASSERT_EQ(census_waves[w].size(), scan_waves[w].size()) << "wave " << w;
    for (std::size_t j = 0; j < scan_waves[w].size(); ++j)
      EXPECT_EQ(census_waves[w][j].key, scan_waves[w][j].key);
  }
  EXPECT_EQ(census_report.nodes_unrecovered, scan_report.nodes_unrecovered);
  EXPECT_EQ(census_report.edges_unrecovered, scan_report.edges_unrecovered);
}

TEST(HealthCensusTest, LockFreePutsBesideEraseAndGrow) {
  // Writers re-put keys that are never missing (lock-free above the
  // missing ceiling, a locked no-op at or below it) while one thread erases
  // and re-puts other keys — some past the census's tail, in the
  // overflow set — and another grows the census over them. After the
  // threads join, the census must equal a rescan of the store.
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kStart = 100;
  constexpr std::uint64_t kNodes = 200;
  const std::vector<BlockKey> universe = key_universe(params, kNodes);
  pipeline::ConcurrentBlockStore store;
  for (const BlockKey& key : universe) store.put(key, Bytes{1});

  MetricsRegistry reg;
  HealthMonitor census(&reg, &quiet_logger());
  census.configure_lattice(params, kStart);
  store.set_observer(&census);

  constexpr std::size_t kSlices = 4;  // slices 0..2 write, slice 3 churns
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t + 1 < kSlices; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round)
        for (std::size_t k = t; k < universe.size(); k += kSlices)
          store.put(universe[k], Bytes{2});
    });
  }
  threads.emplace_back([&] {
    std::mt19937_64 rng(5);
    for (int round = 0; round < 6; ++round)
      for (std::size_t k = kSlices - 1; k < universe.size(); k += kSlices) {
        if (rng() % 2 == 0)
          store.erase(universe[k]);
        else
          store.put(universe[k], Bytes{3});
      }
    // Settle: every fifth key of the slice ends missing.
    for (std::size_t k = kSlices - 1; k < universe.size(); k += kSlices) {
      if (k % 5 == 0)
        store.erase(universe[k]);
      else
        store.put(universe[k], Bytes{4});
    }
  });
  threads.emplace_back([&] {
    for (std::uint64_t n = kStart + 10; n <= kNodes; n += 10)
      census.grow_to(n);
  });
  for (std::thread& thread : threads) thread.join();

  ASSERT_EQ(census.n_nodes(), kNodes);
  std::vector<BlockKey> brute;
  for (const BlockKey& key : universe)
    if (!store.contains(key)) brute.push_back(key);
  ASSERT_FALSE(brute.empty());
  EXPECT_EQ(census.missing_keys(), brute);
  EXPECT_EQ(census.missing_count(), brute.size());
  EXPECT_EQ(census.degraded_all(),
            compute_degraded_full(params, kNodes, brute));
  const HealthSummary s = census.summary();
  EXPECT_EQ(s.data_missing + s.parity_missing, brute.size());
}

}  // namespace
}  // namespace aec::obs
