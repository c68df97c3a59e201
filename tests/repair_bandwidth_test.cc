// Repair-bandwidth accounting: ClusterStore per-node traffic counters
// (every payload byte routed through a node is tallied), and the
// Dimakis-style acceptance result the telemetry layer exists to make
// measurable — on a 5-node cluster, AE(3,2,5) with strand placement
// moves fewer repair bytes per lost block than RS(4,2), and strand
// placement flattens the per-survivor peak load versus round-robin.
//
// The acceptance suite is deliberately NOT named *Cluster* so the TSan
// job (which runs *Cluster* suites) skips the heavyweight rebuild
// phases; the counter unit tests ARE (ClusterTrafficTest) and run under
// TSan with everything else cluster-shaped.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/rng.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

using cluster::ClusterStore;
using cluster::NodeTraffic;
using cluster::PlacementPolicy;
using tools::Archive;

class ClusterTrafficTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_traffic_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path dir(const char* leaf) const { return base_ / leaf; }

  fs::path base_;
};

TEST_F(ClusterTrafficTest, PutAndReadsCountPayloadBytesOnTheRoutedNode) {
  ClusterStore store(dir("c"), 4, PlacementPolicy::kRoundRobin, "file", 0);
  const BlockKey key = BlockKey::data(7);
  const std::uint32_t home = store.node_of(key);
  Rng rng(1);
  const Bytes payload = rng.random_block(512);
  store.put(key, payload);

  NodeTraffic t = store.node_traffic(home);
  EXPECT_EQ(t.blocks_written, 1u);
  EXPECT_EQ(t.bytes_written, 512u);
  EXPECT_EQ(t.blocks_read, 0u);

  ASSERT_TRUE(store.get_copy(key).has_value());
  ASSERT_TRUE(store.get_copy(key).has_value());
  t = store.node_traffic(home);
  EXPECT_EQ(t.blocks_read, 2u);
  EXPECT_EQ(t.bytes_read, 2u * 512u);

  // A miss ships nothing.
  const BlockKey absent = BlockKey::data(9999);
  EXPECT_EQ(store.get_copy(absent), std::nullopt);
  const NodeTraffic miss = store.node_traffic(store.node_of(absent));
  EXPECT_EQ(miss.bytes_read, store.node_of(absent) == home ? 1024u : 0u);

  // Other nodes saw no traffic at all.
  std::uint64_t total_written = 0;
  for (const NodeTraffic& nt : store.traffic()) total_written +=
      nt.bytes_written;
  EXPECT_EQ(total_written, 512u);

  store.reset_traffic();
  for (const NodeTraffic& nt : store.traffic()) {
    EXPECT_EQ(nt.blocks_read, 0u);
    EXPECT_EQ(nt.bytes_read, 0u);
    EXPECT_EQ(nt.blocks_written, 0u);
    EXPECT_EQ(nt.bytes_written, 0u);
  }
}

TEST_F(ClusterTrafficTest, BatchOpsCountPerFoundBlock) {
  ClusterStore store(dir("c"), 4, PlacementPolicy::kStrand, "file", 0);
  Rng rng(2);
  std::vector<std::pair<BlockKey, Bytes>> items;
  std::vector<BlockKey> keys;
  std::uint64_t payload_bytes = 0;
  for (NodeIndex i = 1; i <= 6; ++i) {
    const Bytes payload = rng.random_block(64 * i);
    payload_bytes += payload.size();
    keys.push_back(BlockKey::data(i));
    items.emplace_back(keys.back(), payload);
  }
  store.put_batch(std::move(items));

  std::uint64_t written_blocks = 0, written_bytes = 0;
  for (const NodeTraffic& nt : store.traffic()) {
    written_blocks += nt.blocks_written;
    written_bytes += nt.bytes_written;
  }
  EXPECT_EQ(written_blocks, 6u);
  EXPECT_EQ(written_bytes, payload_bytes);

  keys.push_back(BlockKey::data(424242));  // a guaranteed miss
  const auto got = store.get_batch(keys);
  ASSERT_EQ(got.size(), 7u);
  EXPECT_FALSE(got.back().has_value());
  std::uint64_t read_blocks = 0, read_bytes = 0;
  for (const NodeTraffic& nt : store.traffic()) {
    read_blocks += nt.blocks_read;
    read_bytes += nt.bytes_read;
  }
  EXPECT_EQ(read_blocks, 6u);  // the miss is free
  EXPECT_EQ(read_bytes, payload_bytes);
}

TEST_F(ClusterTrafficTest, StagedWritesAndStagedReadsCount) {
  ClusterStore store(dir("c"), 4, PlacementPolicy::kRoundRobin, "file", 0);
  const BlockKey key = BlockKey::data(3);
  const std::uint32_t home = store.node_of(key);
  store.fail_node(home);

  Rng rng(3);
  store.put(key, rng.random_block(256));  // lands in the staging overlay
  NodeTraffic t = store.node_traffic(home);
  EXPECT_EQ(t.blocks_written, 1u);
  EXPECT_EQ(t.bytes_written, 256u);

  ASSERT_TRUE(store.get_copy(key).has_value());  // served from staging
  t = store.node_traffic(home);
  EXPECT_EQ(t.blocks_read, 1u);
  EXPECT_EQ(t.bytes_read, 256u);
}

// --- acceptance: repair bandwidth per surviving node ------------------------

struct RebuildCost {
  std::uint64_t lost_blocks = 0;
  std::uint64_t survivor_total = 0;
  std::uint64_t survivor_peak = 0;
  std::uint32_t rounds = 0;
  bool recovered = false;

  double per_lost_block() const {
    return lost_blocks ? static_cast<double>(survivor_total) /
                             static_cast<double>(lost_blocks)
                       : 0.0;
  }
};

class RepairBandwidthTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 5;
  static constexpr std::uint32_t kVictim = 1;
  static constexpr std::uint64_t kBlocks = 600;
  static constexpr std::size_t kBlockSize = 1024;

  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_bandwidth_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  /// Ingest a fixed payload, fail node kVictim, rebuild it, and read
  /// the repair traffic off the survivors' byte counters. Verification
  /// reads happen after the traffic snapshot.
  RebuildCost rebuild_cost(const std::string& codec,
                           const std::string& policy) {
    const fs::path root = base_ / (codec + "_" + policy);
    const std::string store_spec =
        "cluster(" + std::to_string(kNodes) + "," + policy + ",file)";
    auto archive = Archive::create(root, codec, kBlockSize, {}, store_spec);
    Rng rng(4242);
    Bytes content;
    content.reserve(kBlocks * kBlockSize);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const Bytes block = rng.random_block(kBlockSize);
      content.insert(content.end(), block.begin(), block.end());
    }
    archive->add_file("doc", content);

    const std::vector<NodeTraffic> before = archive->cluster()->traffic();
    RebuildCost cost;
    cost.lost_blocks = archive->cluster()->node_blocks(kVictim);
    archive->fail_node(kVictim);
    const RepairReport report = archive->rebuild_node(kVictim);
    const std::vector<NodeTraffic> after = archive->cluster()->traffic();
    cost.rounds = report.rounds;
    for (std::uint32_t k = 0; k < kNodes; ++k) {
      if (k == kVictim) continue;
      const std::uint64_t bytes = after[k].bytes_read - before[k].bytes_read;
      cost.survivor_total += bytes;
      cost.survivor_peak = std::max(cost.survivor_peak, bytes);
    }
    const auto restored = archive->read_file("doc");
    cost.recovered = restored.has_value() && *restored == content;
    return cost;
  }

  fs::path base_;
};

TEST_F(RepairBandwidthTest, AeStrandMovesFewerBytesPerLostBlockThanRs) {
  // The cross-codec comparison must be per *lost* block: AE stores 4×
  // redundancy, so the victim holds more blocks than under RS — its
  // total repair traffic is higher even though each individual repair
  // is one XOR of two survivor blocks (~2 block reads) against RS's
  // k = 4 stripe reads.
  const RebuildCost ae = rebuild_cost("AE(3,2,5)", "strand");
  const RebuildCost rs = rebuild_cost("RS(4,2)", "strand");
  ASSERT_TRUE(ae.recovered);
  ASSERT_TRUE(rs.recovered);
  ASSERT_GT(ae.lost_blocks, 0u);
  ASSERT_GT(rs.lost_blocks, 0u);
  EXPECT_LT(ae.per_lost_block(), rs.per_lost_block());
  // And the AE repair locality is tight: ~2 survivor block reads per
  // lost block (one XOR of two inputs), with a little headroom for
  // cascaded repairs that re-read intermediates.
  EXPECT_LT(ae.per_lost_block(), 2.5 * kBlockSize);
  // RS must pull at least k − 1 = 3 remote parts per lost part (one of
  // the k inputs may live on the victim's rebuilt overlay).
  EXPECT_GE(rs.per_lost_block(), 3.0 * kBlockSize);
}

TEST_F(RepairBandwidthTest, StrandPlacementFlattensPeakSurvivorLoad) {
  // Same codec, different placement: strand staggers a block's parities
  // across domains, so every survivor contributes and the whole node
  // repairs in one round; rr colocates a column's blocks, concentrating
  // reads on the neighbour-offset nodes and forcing cascade rounds
  // (later rounds read round-1 outputs from the victim's staging
  // overlay — local traffic — which is why *peak survivor load* and
  // *rounds*, not the survivor average, are the placement metrics).
  const RebuildCost strand = rebuild_cost("AE(3,2,5)", "strand");
  const RebuildCost rr = rebuild_cost("AE(3,2,5)", "rr");
  ASSERT_TRUE(strand.recovered);
  ASSERT_TRUE(rr.recovered);
  EXPECT_LT(strand.survivor_peak, rr.survivor_peak);
  EXPECT_EQ(strand.rounds, 1u);
  EXPECT_GT(rr.rounds, 1u);
}

}  // namespace
}  // namespace aec
