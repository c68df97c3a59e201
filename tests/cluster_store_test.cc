// Cluster layer: shared placement policies (identical maps in the sim
// and the real store), ClusterStore routing/persistence, whole-node
// fault injection feeding the availability index, and the node-rebuild
// acceptance path (AE(3,2,5) on cluster(4,strand,file) survives one
// full node failure with byte-identical post-rebuild contents). The
// concurrent suites run under the TSan CI job.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/cluster_store.h"
#include "cluster/placement.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/codec/availability_index.h"
#include "core/codec/store_registry.h"
#include "sim/ae_system.h"
#include "sim/placement.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

using cluster::ClusterStore;
using cluster::PlacementPolicy;
using cluster::place_block;
using tools::Archive;
using tools::ScrubReport;

// --- placement policies -----------------------------------------------------

TEST(ClusterPlacement, ParsePolicyNames) {
  EXPECT_EQ(cluster::parse_placement_policy("random"),
            PlacementPolicy::kRandom);
  EXPECT_EQ(cluster::parse_placement_policy("rr"),
            PlacementPolicy::kRoundRobin);
  EXPECT_EQ(cluster::parse_placement_policy("roundrobin"),
            PlacementPolicy::kRoundRobin);
  EXPECT_EQ(cluster::parse_placement_policy("strand"),
            PlacementPolicy::kStrand);
  EXPECT_THROW(cluster::parse_placement_policy("bogus"), CheckError);
  EXPECT_THROW(cluster::parse_placement_policy(""), CheckError);
}

TEST(ClusterPlacement, EveryPolicyIsDeterministicAndInRange) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRandom, PlacementPolicy::kRoundRobin,
        PlacementPolicy::kStrand}) {
    for (NodeIndex i = 1; i <= 200; ++i) {
      for (const BlockKey key :
           {BlockKey::data(i),
            BlockKey::parity(Edge{StrandClass::kHorizontal, i}),
            BlockKey::parity(Edge{StrandClass::kRightHanded, i}),
            BlockKey::parity(Edge{StrandClass::kLeftHanded, i})}) {
        const std::uint32_t node = place_block(key, 5, policy, 42);
        EXPECT_LT(node, 5u);
        EXPECT_EQ(node, place_block(key, 5, policy, 42));
      }
    }
  }
}

TEST(ClusterPlacement, RoundRobinColocatesByLatticeColumn) {
  for (NodeIndex i = 1; i <= 50; ++i) {
    const std::uint32_t node =
        place_block(BlockKey::data(i), 4, PlacementPolicy::kRoundRobin, 0);
    EXPECT_EQ(node, static_cast<std::uint32_t>((i - 1) % 4));
    EXPECT_EQ(place_block(BlockKey::parity(Edge{StrandClass::kHorizontal, i}),
                          4, PlacementPolicy::kRoundRobin, 0),
              node);
  }
}

TEST(ClusterPlacement, StrandSeparatesDataFromItsOutputParities) {
  // The Fig 13 property: with N > α, a data block and its α output
  // parities occupy α+1 distinct nodes — one domain failure never takes
  // a block together with the parities that repair it.
  for (const std::uint32_t n : {4u, 5u, 8u}) {
    for (NodeIndex i = 1; i <= 100; ++i) {
      std::set<std::uint32_t> nodes;
      nodes.insert(
          place_block(BlockKey::data(i), n, PlacementPolicy::kStrand, 0));
      for (const StrandClass cls :
           {StrandClass::kHorizontal, StrandClass::kRightHanded,
            StrandClass::kLeftHanded})
        nodes.insert(place_block(BlockKey::parity(Edge{cls, i}), n,
                                 PlacementPolicy::kStrand, 0));
      EXPECT_EQ(nodes.size(), 4u) << "i=" << i << " n=" << n;
    }
  }
}

TEST(ClusterPlacement, RandomSpreadsAndHonorsSeed) {
  std::map<std::uint32_t, std::uint64_t> counts;
  bool seed_changes_something = false;
  for (NodeIndex i = 1; i <= 4000; ++i) {
    const BlockKey key = BlockKey::data(i);
    ++counts[place_block(key, 8, PlacementPolicy::kRandom, 1)];
    seed_changes_something =
        seed_changes_something ||
        place_block(key, 8, PlacementPolicy::kRandom, 1) !=
            place_block(key, 8, PlacementPolicy::kRandom, 2);
  }
  EXPECT_TRUE(seed_changes_something);
  ASSERT_EQ(counts.size(), 8u);  // every node used
  for (const auto& [node, count] : counts) {
    EXPECT_GT(count, 350u);  // mean 500; generous balance bounds
    EXPECT_LT(count, 650u);
  }
}

TEST(ClusterPlacement, FlatPlacementRejectsStrand) {
  Rng rng(1);
  EXPECT_THROW(
      sim::place_blocks(10, 4, PlacementPolicy::kStrand, rng),
      CheckError);
}

// --- sim and cluster share one placement map --------------------------------

TEST(ClusterPlacement, SimAndClusterStoreProduceIdenticalMaps) {
  const CodeParams params(3, 2, 5);
  constexpr std::uint64_t kNodes = 40;
  constexpr std::uint32_t kLocations = 4;
  constexpr std::uint64_t kSeed = 9;
  const auto& classes = params.classes();
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRandom, PlacementPolicy::kRoundRobin,
        PlacementPolicy::kStrand}) {
    const sim::LatticePlacement placement = sim::place_lattice_blocks(
        params, kNodes, kLocations, policy, kSeed);
    ASSERT_EQ(placement.data.size(), kNodes);
    ASSERT_EQ(placement.parity.size(), params.alpha() * kNodes);
    // The sim's per-key arrays against the routing function a real
    // ClusterStore uses — entry by entry.
    for (std::uint64_t b = 0; b < kNodes; ++b) {
      EXPECT_EQ(placement.data[b],
                place_block(BlockKey::data(static_cast<NodeIndex>(b + 1)),
                            kLocations, policy, kSeed));
      for (std::uint32_t c = 0; c < params.alpha(); ++c)
        EXPECT_EQ(
            placement.parity[c * kNodes + b],
            place_block(BlockKey::parity(Edge{
                            classes[c], static_cast<NodeIndex>(b + 1)}),
                        kLocations, policy, kSeed));
    }
  }
}

TEST(ClusterPlacement, AeDisasterSimRunsStrandPolicy) {
  // The disaster harness consumes the shared per-key placement for the
  // strand policy: with N locations > α and one failed location (a
  // "node"), every lost data block must be a round-1 single-failure
  // repair — the Fig 13 property, observed through the sim.
  const auto scheme = sim::make_ae_scheme(CodeParams(3, 2, 5));
  sim::DisasterConfig config;
  config.n_locations = 4;
  config.failed_fraction = 0.25;  // exactly one location
  config.placement = sim::PlacementPolicy::kStrand;
  config.seed = 11;
  const sim::DisasterResult result = scheme->run_disaster(200, config);
  EXPECT_GT(result.data_unavailable, 0u);
  EXPECT_EQ(result.data_lost, 0u);
  EXPECT_EQ(result.repair_rounds, 1u);
  EXPECT_EQ(result.single_failure_repairs, result.data_repaired);
}

// --- ClusterStore -----------------------------------------------------------

class ClusterStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_cluster_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path dir(const char* leaf) const { return base_ / leaf; }

  fs::path base_;
};

TEST_F(ClusterStoreTest, RoutesBlocksToPlacementNodes) {
  ClusterStore store(dir("c"), 4, PlacementPolicy::kStrand, "file", 0);
  for (NodeIndex i = 1; i <= 30; ++i) {
    const BlockKey key = BlockKey::data(i);
    store.put(key, Bytes{static_cast<std::uint8_t>(i)});
    // The block file must physically live under the placed node's root.
    const fs::path node_dir = store.node_root(store.node_of(key));
    EXPECT_TRUE(fs::exists(node_dir / "d" / std::to_string(i)));
  }
  EXPECT_EQ(store.size(), 30u);
  std::uint64_t per_node_total = 0;
  for (std::uint32_t k = 0; k < store.node_count(); ++k)
    per_node_total += store.node_blocks(k);
  EXPECT_EQ(per_node_total, 30u);
}

TEST_F(ClusterStoreTest, BatchOpsMatchSingleOps) {
  ClusterStore store(dir("c"), 3, PlacementPolicy::kRandom, "mem", 7);
  std::vector<std::pair<BlockKey, Bytes>> items;
  std::vector<BlockKey> keys;
  for (NodeIndex i = 1; i <= 40; ++i) {
    keys.push_back(BlockKey::data(i));
    items.emplace_back(keys.back(), Bytes{static_cast<std::uint8_t>(i), 9});
  }
  keys.push_back(BlockKey::data(999));  // absent
  store.put_batch(items);
  const auto got = store.get_batch(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    ASSERT_TRUE(got[i].has_value());
    EXPECT_EQ(*got[i], *store.get_copy(keys[i]));
  }
  EXPECT_FALSE(got.back().has_value());
}

TEST_F(ClusterStoreTest, ReopenKeepsPinnedTopologyAndDownState) {
  {
    ClusterStore store(dir("c"), 4, PlacementPolicy::kStrand, "file", 3);
    store.put(BlockKey::data(1), Bytes{1});
    store.set_node_domain(2, "eu-west");
    store.fail_node(1);
  }
  // Reopen with deliberately different arguments: cluster.txt wins.
  ClusterStore store(dir("c"), 8, PlacementPolicy::kRandom, "file", 0);
  EXPECT_EQ(store.node_count(), 4u);
  EXPECT_EQ(store.policy(), PlacementPolicy::kStrand);
  EXPECT_EQ(store.placement_seed(), 3u);
  EXPECT_EQ(store.node_domain(2), "eu-west");
  EXPECT_TRUE(store.node_down(1));
  EXPECT_FALSE(store.node_down(0));
  EXPECT_TRUE(store.contains(BlockKey::data(1)));
}

TEST_F(ClusterStoreTest, OpeningExistingRootDoesNotRewriteState) {
  // Opens must be read-only on cluster.txt: a stat/get-style command
  // running concurrently with `node fail` in another process must not
  // clobber the freshly written down marker with its stale copy.
  { ClusterStore store(dir("c"), 4, PlacementPolicy::kStrand, "file", 0); }
  const fs::path state = dir("c") / "cluster.txt";
  const auto written = fs::last_write_time(state);
  { ClusterStore store(dir("c"), 4, PlacementPolicy::kStrand, "file", 0); }
  EXPECT_EQ(fs::last_write_time(state), written);
}

TEST_F(ClusterStoreTest, AcceptsFullUint64PlacementSeed) {
  const auto store = make_store(
      "cluster(2,random,mem,18446744073709551615)", dir("c"));
  const auto* cluster =
      dynamic_cast<const ClusterStore*>(store.get());
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->placement_seed(), 18446744073709551615ULL);
  // One past uint64 max overflows and is rejected, not wrapped.
  EXPECT_THROW(
      make_store("cluster(2,random,mem,18446744073709551616)", dir("d")),
      CheckError);
}

TEST_F(ClusterStoreTest, TamperedStateFileCannotSmuggleNestedCluster) {
  { ClusterStore store(dir("c"), 2, PlacementPolicy::kRoundRobin, "file", 0); }
  // Hand-edit cluster.txt to a child spec creation hard-rejects: the
  // reopen must reject it too.
  const fs::path state = dir("c") / "cluster.txt";
  std::string text;
  {
    std::ifstream in(state);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::size_t at = text.find("child file");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "child cluster(2,rr,file)");
  {
    std::ofstream out(state, std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(
      ClusterStore(dir("c"), 2, PlacementPolicy::kRoundRobin, "file", 0),
      CheckError);
}

TEST_F(ClusterStoreTest, RejectsBadTopology) {
  EXPECT_THROW(
      ClusterStore(dir("a"), 1, PlacementPolicy::kStrand, "file", 0),
      CheckError);
  EXPECT_THROW(
      ClusterStore(dir("b"), 4, PlacementPolicy::kStrand,
                   "cluster(2,rr,file)", 0),
      CheckError);
  EXPECT_THROW(ClusterStore(dir("c"), 4, PlacementPolicy::kStrand,
                            "no-such-backend", 0),
               CheckError);
}

TEST_F(ClusterStoreTest, FailNodeAnswersMissesAndFeedsObserver) {
  ClusterStore store(dir("c"), 4, PlacementPolicy::kStrand, "file", 0);
  AvailabilityIndex index;
  store.set_observer(&index);
  std::vector<BlockKey> on_node1;
  for (NodeIndex i = 1; i <= 24; ++i) {
    const BlockKey key = BlockKey::data(i);
    store.put(key, Bytes{static_cast<std::uint8_t>(i)});
    if (store.node_of(key) == 1) on_node1.push_back(key);
  }
  ASSERT_FALSE(on_node1.empty());
  EXPECT_EQ(index.missing_count(), 0u);

  store.fail_node(1);
  // Every key the node held answers a miss and is announced missing.
  EXPECT_EQ(index.missing_count(), on_node1.size());
  for (const BlockKey& key : on_node1) {
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.get_copy(key).has_value());
    EXPECT_TRUE(index.is_missing(key));
  }
  EXPECT_EQ(store.node_blocks(1), 0u);
  EXPECT_THROW(store.fail_node(1), CheckError);  // already down

  // Writes during the outage are staged (readable, announced present),
  // not durable on the dead child.
  const BlockKey staged_key = on_node1.front();
  store.put(staged_key, Bytes{0xAB});
  EXPECT_TRUE(store.contains(staged_key));
  EXPECT_FALSE(index.is_missing(staged_key));
  EXPECT_EQ(store.node_blocks(1), 1u);

  // Heal: old contents reachable again, staged repair flushed durably.
  store.heal_node(1);
  EXPECT_EQ(index.missing_count(), 0u);
  for (const BlockKey& key : on_node1) EXPECT_TRUE(store.contains(key));
  const auto healed = store.get_copy(staged_key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, Bytes{0xAB});
  EXPECT_THROW(store.heal_node(1), CheckError);  // not down
}

TEST_F(ClusterStoreTest, ReplaceNodeRequiresFailureAndWipes) {
  ClusterStore store(dir("c"), 4, PlacementPolicy::kRoundRobin, "file", 0);
  for (NodeIndex i = 1; i <= 16; ++i)
    store.put(BlockKey::data(i), Bytes{static_cast<std::uint8_t>(i)});
  EXPECT_THROW(store.replace_node(0), CheckError);  // up
  const std::uint64_t held = store.node_blocks(0);
  ASSERT_GT(held, 0u);
  store.fail_node(0);
  store.replace_node(0);
  EXPECT_FALSE(store.node_down(0));
  EXPECT_EQ(store.node_blocks(0), 0u);  // fresh backend, nothing staged
}

TEST_F(ClusterStoreTest, ConcurrentRoutedOpsWithShardedChildren) {
  // TSan coverage: routed puts/reads from several threads while another
  // thread fails and heals a different node. Sharded children make the
  // cluster natively thread-safe.
  ClusterStore store(dir("c"), 4, PlacementPolicy::kRandom, "sharded(4)",
                     0);
  ASSERT_TRUE(store.thread_safe());
  constexpr NodeIndex kPerThread = 60;
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      for (NodeIndex i = 1; i <= kPerThread; ++i) {
        const auto idx = static_cast<NodeIndex>(t * kPerThread + i);
        store.put(BlockKey::data(idx),
                  Bytes{static_cast<std::uint8_t>(idx & 0xFF)});
        store.get_copy(BlockKey::data(idx));
        store.contains(BlockKey::data(static_cast<NodeIndex>(i)));
      }
    });
  }
  workers.emplace_back([&] {
    for (int round = 0; round < 10; ++round) {
      store.fail_node(2);
      store.heal_node(2);
    }
  });
  for (std::thread& worker : workers) worker.join();
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < store.node_count(); ++k)
    total += store.node_blocks(k);
  EXPECT_EQ(total, static_cast<std::uint64_t>(3 * kPerThread));
}

// --- acceptance: a cluster archive survives one full node failure -----------

class ClusterArchiveTest : public ClusterStoreTest {};

TEST_F(ClusterArchiveTest, SurvivesFullNodeFailureWithByteIdentity) {
  const fs::path root = dir("arch");
  Rng rng(2024);
  const Bytes content = rng.random_block(61 * 256 + 57);

  // AE(3,2,5) on cluster(4,strand,file) — the acceptance configuration.
  auto archive =
      Archive::create(root, "AE(3,2,5)", 256, {}, "cluster(4,strand,file)");
  archive->add_file("doc", content);
  ASSERT_EQ(archive->missing_blocks(), 0u);
  const auto before = archive->cluster()->fingerprint();
  ASSERT_FALSE(before.empty());
  const std::uint64_t node_share = archive->cluster()->node_blocks(2);
  ASSERT_GT(node_share, 0u);

  // One full node failure: the availability index sees exactly the
  // node's share of the archive go dark.
  archive->fail_node(2);
  EXPECT_EQ(archive->missing_blocks(), node_share);

  // Scrub under failure: every block is recovered (strand placement
  // keeps both repair inputs of every lost block alive).
  const ScrubReport scrub = archive->scrub();
  EXPECT_EQ(scrub.repair.nodes_unrecovered, 0u);
  EXPECT_EQ(scrub.repair.edges_unrecovered, 0u);
  EXPECT_EQ(scrub.repair.blocks_repaired_total(), node_share);
  EXPECT_EQ(archive->missing_blocks(), 0u);
  EXPECT_EQ(scrub.inconsistent_parities, 0u);

  // Rebuild re-materializes the lost node onto a replacement backend.
  const RepairReport rebuild = archive->rebuild_node(2);
  EXPECT_EQ(rebuild.nodes_unrecovered + rebuild.edges_unrecovered, 0u);
  EXPECT_FALSE(archive->cluster()->node_down(2));
  EXPECT_EQ(archive->cluster()->node_blocks(2), node_share);
  EXPECT_EQ(archive->missing_blocks(), 0u);

  // Post-rebuild store fingerprints are byte-identical to pre-failure.
  EXPECT_EQ(archive->cluster()->fingerprint(), before);

  // And the archive read path round-trips — including across reopen.
  const auto read_back = archive->read_file("doc");
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, content);
  archive.reset();
  auto reopened = Archive::open(root);
  EXPECT_EQ(reopened->missing_blocks(), 0u);
  const auto read_again = reopened->read_file("doc");
  ASSERT_TRUE(read_again.has_value());
  EXPECT_EQ(*read_again, content);
}

TEST_F(ClusterArchiveTest, RebuildWithoutPriorScrubRematerializesNode) {
  // The cross-process CLI path (fail in one run, rebuild in another)
  // collapsed in-process: no staged repairs exist at rebuild time, so
  // every block is re-derived from the surviving domains.
  const fs::path root = dir("arch");
  Rng rng(77);
  const Bytes content = rng.random_block(40 * 128);
  auto archive =
      Archive::create(root, "AE(3,2,5)", 128, {}, "cluster(4,strand,file)");
  archive->add_file("doc", content);
  const auto before = archive->cluster()->fingerprint();

  archive->fail_node(1);
  const RepairReport rebuild = archive->rebuild_node(1);
  EXPECT_EQ(rebuild.nodes_unrecovered + rebuild.edges_unrecovered, 0u);
  EXPECT_EQ(archive->cluster()->fingerprint(), before);
  const auto read_back = archive->read_file("doc");
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, content);
}

TEST_F(ClusterArchiveTest, FailurePersistsAcrossReopen) {
  const fs::path root = dir("arch");
  Rng rng(5);
  const Bytes content = rng.random_block(30 * 128);
  std::uint64_t node_share = 0;
  {
    auto archive = Archive::create(root, "AE(3,2,5)", 128, {},
                                   "cluster(4,rr,file)");
    archive->add_file("doc", content);
    node_share = archive->cluster()->node_blocks(3);
    archive->fail_node(3);
  }
  // A fresh process sees the node down and the index seeded accordingly
  // (sidecar or full walk — either must agree).
  auto archive = Archive::open(root);
  ASSERT_NE(archive->cluster(), nullptr);
  EXPECT_TRUE(archive->cluster()->node_down(3));
  EXPECT_EQ(archive->missing_blocks(), node_share);
  const RepairReport rebuild = archive->rebuild_node(3);
  EXPECT_EQ(rebuild.nodes_unrecovered + rebuild.edges_unrecovered, 0u);
  EXPECT_EQ(archive->missing_blocks(), 0u);
  const auto read_back = archive->read_file("doc");
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, content);
}

TEST_F(ClusterArchiveTest, NodeOpsRejectNonClusterArchives) {
  auto archive = Archive::create(dir("plain"), "AE(3,2,5)", 128, {}, "file");
  EXPECT_EQ(archive->cluster(), nullptr);
  EXPECT_THROW(archive->fail_node(0), CheckError);
  EXPECT_THROW(archive->heal_node(0), CheckError);
  EXPECT_THROW(archive->rebuild_node(0), CheckError);
}

TEST_F(ClusterArchiveTest, RefusesIngestWhileDegraded) {
  // New content routed to a down node would stage in volatile memory
  // and report success — silent loss at exit. Ingest must refuse while
  // any node is down, and work again once the node is back.
  auto archive = Archive::create(dir("arch"), "AE(3,2,5)", 128, {},
                                 "cluster(4,strand,file)");
  archive->add_file("a", Bytes(700, 1));
  archive->fail_node(1);
  EXPECT_THROW(archive->add_file("b", Bytes(700, 2)), CheckError);
  EXPECT_THROW(archive->begin_file("c"), CheckError);
  archive->heal_node(1);
  archive->add_file("b", Bytes(700, 2));
  const auto read_back = archive->read_file("b");
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, Bytes(700, 2));
}

TEST_F(ClusterArchiveTest, RebuildRequiresDownNode) {
  auto archive = Archive::create(dir("arch"), "AE(3,2,5)", 128, {},
                                 "cluster(4,strand,file)");
  archive->add_file("doc", Bytes(1024, 7));
  EXPECT_THROW(archive->rebuild_node(0), CheckError);
}

}  // namespace
}  // namespace aec
