// AvailabilityIndex: consistency against a full-store rescan under
// randomized mutate/damage sequences, O(damage) snapshot/plan identity
// with the scanning path, and the end-to-end acceptance check that a
// sharded+indexed archive repairs byte-identically (same waves, same
// residue) to the classic FileBlockStore path.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "ae_test_util.h"
#include "common/rng.h"
#include "core/codec/availability_index.h"
#include "core/codec/file_block_store.h"
#include "core/codec/repair_planner.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

std::vector<BlockKey> lattice_keys(const Lattice& lat) {
  std::vector<BlockKey> keys;
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    keys.push_back(BlockKey::data(i));
    for (StrandClass cls : lat.params().classes())
      keys.push_back(BlockKey::parity(lat.output_edge(i, cls)));
  }
  return keys;
}

TEST(AvailabilityIndexTest, TracksRandomizedMutationSequences) {
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 32;
  constexpr std::uint64_t kNodes = 60;
  InMemoryBlockStore store;
  test::encode_into(params, kBlockSize,
                    test::random_blocks(kNodes, kBlockSize, 1), store);
  const Lattice lat(params, kNodes, Lattice::Boundary::kOpen);
  const std::vector<BlockKey> universe = lattice_keys(lat);

  AvailabilityIndex index;
  store.set_observer(&index);

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
    // brute-force rescan of the whole store.
    std::uint64_t brute_missing = 0;
    for (const BlockKey& probe : universe) {
      const bool missing = !store.contains(probe);
      brute_missing += missing ? 1 : 0;
      EXPECT_EQ(index.is_missing(probe), missing) << to_string(probe);
    }
    EXPECT_EQ(index.missing_count(), brute_missing);
    const std::vector<BlockKey> sorted = index.missing_sorted();
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                               block_key_order_less));
  }
}

TEST(AvailabilityIndexTest, SnapshotAndPlanMatchTheScanningPath) {
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 32;
  constexpr std::uint64_t kNodes = 200;
  InMemoryBlockStore store;
  test::encode_into(params, kBlockSize,
                    test::random_blocks(kNodes, kBlockSize, 2), store);
  const Lattice lat(params, kNodes, Lattice::Boundary::kOpen);

  AvailabilityIndex index;
  store.set_observer(&index);
  // Damage through the store API (index follows along), plus one orphan
  // entry outside the lattice that every indexed path must ignore.
  Rng rng(7);
  for (const BlockKey& key : lattice_keys(lat))
    if (rng.bernoulli(0.2)) store.erase(key);
  index.on_block(BlockKey::data(static_cast<NodeIndex>(kNodes) + 50),
                 false);

  const RepairPlanner planner(&lat);
  AvailabilityMap scan_avail = planner.snapshot(store);
  AvailabilityMap index_avail = planner.snapshot(index);
  for (const BlockKey& key : lattice_keys(lat))
    ASSERT_EQ(scan_avail.ok(key), index_avail.ok(key)) << to_string(key);

  const RepairPlan scan_plan = planner.plan(scan_avail);
  RepairPlan index_plan = planner.plan_missing(
      index_avail, planner.missing_in_lattice(index));

  // Identical wave structure, step for step (key, strand, side), and
  // identical residue.
  ASSERT_EQ(index_plan.rounds(), scan_plan.rounds());
  for (std::size_t w = 0; w < scan_plan.waves.size(); ++w) {
    ASSERT_EQ(index_plan.waves[w].size(), scan_plan.waves[w].size())
        << "wave " << w;
    for (std::size_t j = 0; j < scan_plan.waves[w].size(); ++j) {
      EXPECT_EQ(index_plan.waves[w][j].key, scan_plan.waves[w][j].key);
      EXPECT_EQ(index_plan.waves[w][j].via, scan_plan.waves[w][j].via);
      EXPECT_EQ(index_plan.waves[w][j].from_head,
                scan_plan.waves[w][j].from_head);
    }
  }
  EXPECT_EQ(index_plan.residue, scan_plan.residue);
  EXPECT_EQ(index_plan.nodes_planned, scan_plan.nodes_planned);
  EXPECT_EQ(index_plan.edges_planned, scan_plan.edges_planned);
}

// --- archive-level acceptance ----------------------------------------------

class ArchiveStorePathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_store_path_test_" +
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

TEST_F(ArchiveStorePathTest, ShardedIndexedScrubMatchesFileStorePath) {
  // Same content, same damage seed, two backends: the sharded+indexed
  // repair must produce byte-identical blocks and the identical
  // wave/residue structure the scanning FileBlockStore path reports.
  using tools::Archive;
  using tools::ScrubReport;
  Rng rng(33);
  const Bytes doc = rng.random_block(64 * 300 + 17);

  auto file_archive = Archive::create(dir("file"), "AE(3,2,5)", 64,
                                      Engine::serial(), "file");
  auto sharded_archive = Archive::create(dir("sharded"), "AE(3,2,5)", 64,
                                         Engine::with_threads(3),
                                         "sharded(4)");
  file_archive->add_file("doc", doc);
  sharded_archive->add_file("doc", doc);
  ASSERT_EQ(file_archive->blocks(), sharded_archive->blocks());

  // Identical damage: inject_damage walks the same deterministic
  // expected-key order with the same RNG seed on both.
  const std::uint64_t destroyed_file = file_archive->inject_damage(0.18, 5);
  const std::uint64_t destroyed_sharded =
      sharded_archive->inject_damage(0.18, 5);
  ASSERT_EQ(destroyed_file, destroyed_sharded);
  EXPECT_EQ(file_archive->missing_blocks(),
            sharded_archive->missing_blocks());

  const ScrubReport a = file_archive->scrub();
  const ScrubReport b = sharded_archive->scrub();
  EXPECT_EQ(b.repair.rounds, a.repair.rounds);
  EXPECT_EQ(b.repair.nodes_repaired_per_round,
            a.repair.nodes_repaired_per_round);
  EXPECT_EQ(b.repair.edges_repaired_per_round,
            a.repair.edges_repaired_per_round);
  EXPECT_EQ(b.repair.nodes_repaired_total, a.repair.nodes_repaired_total);
  EXPECT_EQ(b.repair.edges_repaired_total, a.repair.edges_repaired_total);
  EXPECT_EQ(b.repair.nodes_unrecovered, a.repair.nodes_unrecovered);
  EXPECT_EQ(b.repair.edges_unrecovered, a.repair.edges_unrecovered);

  // Byte identity across every expected key, straight from the stores.
  {
    FileBlockStore flat(dir("file"));
    FileBlockStore sharded(dir("sharded"), 4);
    const CodeParams params(3, 2, 5);
    const Lattice lat(params, file_archive->blocks(),
                      Lattice::Boundary::kOpen);
    for (const BlockKey& key : lattice_keys(lat)) {
      const auto va = flat.get_copy(key);
      const auto vb = sharded.get_copy(key);
      ASSERT_EQ(va.has_value(), vb.has_value()) << to_string(key);
      if (va) {
        ASSERT_EQ(*va, *vb) << to_string(key);
      }
    }
  }

  EXPECT_EQ(file_archive->read_file("doc"), doc);
  EXPECT_EQ(sharded_archive->read_file("doc"), doc);
  EXPECT_EQ(sharded_archive->missing_blocks(), 0u);

  // Post-scrub index agreement: repairs flowed back into the index.
  for (const tools::AvailabilityClassSummary& row :
       sharded_archive->availability_summary())
    EXPECT_EQ(row.missing, 0u) << row.label;
}

TEST_F(ArchiveStorePathTest, ShardedArchiveRoundTripsThroughReopen) {
  using tools::Archive;
  Rng rng(44);
  const Bytes doc = rng.random_block(4000);
  {
    auto archive = Archive::create(dir("a"), "AE(3,2,5)", 128,
                                   Engine::with_threads(2), "sharded(8)");
    archive->add_file("doc", doc);
    EXPECT_EQ(archive->store_spec(), "sharded(8)");
  }
  // Reopen rebuilds the sharded backend from the manifest's store spec.
  auto reopened = Archive::open(dir("a"), Engine::with_threads(2));
  EXPECT_EQ(reopened->store_spec(), "sharded(8)");
  EXPECT_EQ(reopened->read_file("doc"), doc);
  reopened->inject_damage(0.1, 3);
  EXPECT_GT(reopened->missing_blocks(), 0u);
  reopened->scrub();
  EXPECT_EQ(reopened->missing_blocks(), 0u);
  EXPECT_EQ(reopened->read_file("doc"), doc);
}

TEST_F(ArchiveStorePathTest, StripedCodecsWorkOnShardedStores) {
  using tools::Archive;
  Rng rng(55);
  const Bytes doc = rng.random_block(5000);
  for (const char* codec : {"RS(6,3)", "REP(3)"}) {
    const std::string leaf = std::string("a_") + codec;
    auto archive =
        Archive::create(base_ / leaf, codec, 256, Engine::with_threads(2),
                        "sharded(4)");
    archive->add_file("doc", doc);
    archive->inject_damage(0.15, 9);
    archive->scrub();
    EXPECT_EQ(archive->missing_blocks(), 0u) << codec;
    EXPECT_EQ(archive->read_file("doc"), doc) << codec;
  }
}

TEST_F(ArchiveStorePathTest, MissingBlocksStaysCurrentWithoutScans) {
  using tools::Archive;
  Rng rng(66);
  auto archive = Archive::create(dir("a"), "AE(3,2,5)", 64,
                                 Engine::serial(), "sharded(2)");
  archive->add_file("doc", rng.random_block(64 * 50));
  EXPECT_EQ(archive->missing_blocks(), 0u);
  const std::uint64_t destroyed = archive->inject_damage(0.2, 21);
  EXPECT_EQ(archive->missing_blocks(), destroyed);
  archive->scrub();
  EXPECT_EQ(archive->missing_blocks(), 0u);
}

}  // namespace
}  // namespace aec
