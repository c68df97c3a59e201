// HealthMonitor contract: the incrementally maintained margin map must
// equal a brute-force full-lattice recomputation after any delta
// sequence (the O(damage) fast path can never drift from the oracle),
// vulnerability (margin 0) must coincide with the repair planner's
// node_repairable predicate, and the counts-only mode must keep a
// correct damage census for non-lattice codecs. The HealthMonitor
// suites also run under the TSan CI job (deltas arrive from the
// index's stripe locks on many threads).
#include "obs/health.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <vector>

#include "core/codec/availability_index.h"
#include "core/codec/repair_planner.h"
#include "core/lattice/lattice.h"
#include "obs/log.h"
#include "obs/metrics.h"
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

/// Every key an open AE lattice of n nodes stores, plus a few orphans
/// past the tail (the index may hold them; the monitor must ignore
/// them until the lattice grows over them).
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

TEST(HealthMonitorTest, CountsOnlyModeWithoutLattice) {
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  EXPECT_FALSE(mon.lattice_configured());

  mon.on_availability_delta(BlockKey::data(3), true);
  mon.on_availability_delta(
      BlockKey::parity(Edge{StrandClass::kHorizontal, 2}), true);
  HealthSummary s = mon.summary();
  EXPECT_FALSE(s.lattice_mode);
  EXPECT_EQ(s.alpha, 0u);
  EXPECT_EQ(s.data_missing, 1u);
  EXPECT_EQ(s.parity_missing, 1u);
  EXPECT_EQ(s.degraded_blocks, 0u);  // no margins without a lattice
  EXPECT_TRUE(mon.worst(10).empty());
  EXPECT_TRUE(s.degraded());

  mon.on_availability_delta(BlockKey::data(3), false);
  mon.on_availability_delta(
      BlockKey::parity(Edge{StrandClass::kHorizontal, 2}), false);
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
  mon.on_availability_delta(BlockKey::parity(edge), true);

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

  mon.on_availability_delta(BlockKey::parity(edge), false);
  EXPECT_TRUE(mon.worst(10).empty());
  EXPECT_EQ(mon.summary().min_margin, params.alpha());
}

TEST(HealthMonitorTest, IncrementalMatchesFullRecomputeUnderRandomChurn) {
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 120;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  AvailabilityIndex index;
  index.set_delta_listener(&mon);
  mon.configure_lattice(params, kNodes);

  const std::vector<BlockKey> keys =
      key_universe(params, kNodes, /*orphan_overhang=*/8);
  std::mt19937_64 rng(0xAEC0DE);
  for (int step = 1; step <= 600; ++step) {
    const BlockKey& key = keys[rng() % keys.size()];
    // Biased toward damage so the degraded set actually grows; the
    // index only forwards real transitions.
    index.on_block(key, /*present=*/(rng() % 3) == 0);
    if (step % 50 != 0) continue;
    const auto expected = compute_degraded_full(params, kNodes, index);
    EXPECT_EQ(mon.degraded_all(), expected) << "after step " << step;
    // Census invariants against the oracle's view of the same index.
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
  AvailabilityIndex index;
  index.set_delta_listener(&mon);
  mon.configure_lattice(params, kNodes);

  const std::vector<BlockKey> keys = key_universe(params, kNodes);
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < keys.size() / 4; ++i)
    index.on_block(keys[rng() % keys.size()], /*present=*/false);

  const Lattice lattice(params, kNodes, Lattice::Boundary::kOpen);
  const RepairPlanner planner(&lattice);
  const AvailabilityMap avail = planner.snapshot(index);

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
  AvailabilityIndex index;
  index.set_delta_listener(&mon);
  mon.configure_lattice(params, 10);

  // Damage whose blast radius crosses the current tail: the H output
  // edge of node 10 heads at 10+s=12, outside the 10-node lattice, and
  // data 14 doesn't exist yet at all.
  index.on_block(BlockKey::parity(Edge{StrandClass::kHorizontal, 10}),
                 false);
  index.on_block(BlockKey::data(14), false);
  EXPECT_EQ(mon.degraded_all(), compute_degraded_full(params, 10, index));

  mon.grow_to(15);
  EXPECT_EQ(mon.n_nodes(), 15u);
  const auto expected = compute_degraded_full(params, 15, index);
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
  AvailabilityIndex index;
  index.set_delta_listener(&mon);
  mon.configure_lattice(params, 100);

  const BlockKey d150 = BlockKey::data(150);
  const BlockKey h150 = BlockKey::parity(Edge{StrandClass::kHorizontal, 150});
  const BlockKey lh = BlockKey::parity(Edge{StrandClass::kLeftHanded, 40});
  for (const BlockKey& key : {BlockKey::data(0), lh, d150, h150})
    index.on_block(key, /*present=*/false);
  HealthSummary s = mon.summary();
  EXPECT_EQ(s.data_missing, 0u);
  EXPECT_EQ(s.parity_missing, 0u);
  EXPECT_EQ(s.degraded_blocks, 0u);
  EXPECT_TRUE(mon.degraded_all().empty());

  mon.grow_to(200);
  s = mon.summary();
  EXPECT_EQ(s.data_missing, 1u);    // d150
  EXPECT_EQ(s.parity_missing, 1u);  // p(H,150); the LH parity never counts
  const auto expected = compute_degraded_full(params, 200, index);
  EXPECT_FALSE(expected.empty());  // p(H,150)'s head lost a path
  EXPECT_EQ(mon.degraded_all(), expected);
  EXPECT_EQ(s.degraded_blocks, expected.size());

  for (const BlockKey& key : {BlockKey::data(0), lh, d150, h150})
    index.on_block(key, /*present=*/true);
  s = mon.summary();
  EXPECT_EQ(s.data_missing, 0u);
  EXPECT_EQ(s.parity_missing, 0u);
  EXPECT_EQ(s.degraded_blocks, 0u);
  EXPECT_TRUE(mon.degraded_all().empty());
  EXPECT_EQ(s.min_margin, params.alpha());
}

TEST(HealthMonitorTest, ResetFromRebuildsAfterOutOfBandDamage) {
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 60;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  mon.configure_lattice(params, kNodes);

  // Damage accumulated while the monitor was NOT listening (sidecar
  // load, reindex): reset_from must reproduce it wholesale.
  AvailabilityIndex index;
  const std::vector<BlockKey> keys = key_universe(params, kNodes);
  std::mt19937_64 rng(11);
  for (std::size_t i = 0; i < keys.size() / 5; ++i)
    index.on_block(keys[rng() % keys.size()], /*present=*/false);

  mon.reset_from(index);
  EXPECT_EQ(mon.degraded_all(), compute_degraded_full(params, kNodes, index));

  // A second reset from a healed index clears everything stale.
  AvailabilityIndex healed;
  mon.reset_from(healed);
  EXPECT_TRUE(mon.degraded_all().empty());
  EXPECT_EQ(mon.summary().data_missing, 0u);
  EXPECT_EQ(mon.summary().parity_missing, 0u);
}

TEST(HealthMonitorTest, WorstRanksAscendingMarginThenIndex) {
  const CodeParams params(3, 2, 5);
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  AvailabilityIndex index;
  index.set_delta_listener(&mon);
  mon.configure_lattice(params, 40);

  // Strip node 20 of all three strand classes' parities → margin 0;
  // its neighbours lose one path each.
  const Lattice lattice(params, 40, Lattice::Boundary::kOpen);
  for (const StrandClass cls : params.classes()) {
    index.on_block(BlockKey::parity(lattice.output_edge(20, cls)), false);
    if (const auto input = lattice.input_edge(20, cls))
      index.on_block(BlockKey::parity(*input), false);
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

TEST(HealthMonitorTest, ConcurrentDeltasConvergeToFullRecompute) {
  // Deltas arrive under the index's stripe locks from many threads
  // (parallel scrub repairs, sharded-store puts). Each task owns a
  // disjoint key slice and ends it in a deterministic state, so after
  // quiescing the monitor must agree with the oracle exactly.
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 100;
  MetricsRegistry reg;
  HealthMonitor mon(&reg, &quiet_logger());
  AvailabilityIndex index;
  index.set_delta_listener(&mon);
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
            index.on_block(keys[k], /*present=*/(rng() % 2) == 0);
          index.on_block(keys[k], /*present=*/k % 7 != 0);
        }
      });
    }
    pool.wait(group);
  }
  EXPECT_EQ(mon.degraded_all(), compute_degraded_full(params, kNodes, index));
  const HealthSummary s = mon.summary();
  std::uint64_t data_missing = 0;
  std::uint64_t parity_missing = 0;
  for (std::size_t k = 0; k < keys.size(); k += 1) {
    if (k % 7 != 0) continue;
    keys[k].is_data() ? ++data_missing : ++parity_missing;
  }
  EXPECT_EQ(s.data_missing, data_missing);
  EXPECT_EQ(s.parity_missing, parity_missing);
}

}  // namespace
}  // namespace aec::obs
