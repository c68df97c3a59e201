// Archive store paths: a sharded archive planned from the health census
// repairs byte-identically (same waves, same residue) to the classic
// FileBlockStore path, and for every codec the census agrees with a
// brute-force pass over the store after damage, scrub, growth and both
// kinds of reopen.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <memory>
#include <string>
#include <utility>

#include "api/codec.h"
#include "api/engine.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "core/codec/store_registry.h"
#include "obs/health.h"
#include "pipeline/concurrent_block_store.h"
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

/// Checks `archive`'s census against ground truth: every key a session
/// of the archive's size expects (for_each_expected_key), probed with
/// contains() on a store opened fresh on the archive's sharded(4) root.
void expect_census_is_ground_truth(const tools::Archive& archive,
                                   const fs::path& root) {
  FileBlockStore probe(root, 4);
  const std::unique_ptr<CodecSession> session =
      Engine::serial()->open_session(make_codec(archive.codec().id()),
                                     &probe, archive.block_size(),
                                     archive.blocks());
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> rows;
  std::uint64_t data_missing = 0;
  std::uint64_t parity_missing = 0;
  session->for_each_expected_key([&](const BlockKey& key) {
    const std::string label =
        key.is_data() ? "data" : std::string("parity ") + to_string(key.cls);
    auto& [expected, missing] = rows[label];
    ++expected;
    if (probe.contains(key)) return;
    ++missing;
    ++(key.is_data() ? data_missing : parity_missing);
  });
  EXPECT_EQ(archive.missing_blocks(), data_missing + parity_missing);
  const obs::HealthSummary health = archive.health().summary();
  EXPECT_EQ(health.data_missing, data_missing);
  EXPECT_EQ(health.parity_missing, parity_missing);
  const std::vector<tools::AvailabilityClassSummary> summary =
      archive.availability_summary();
  ASSERT_EQ(summary.size(), rows.size());
  for (const tools::AvailabilityClassSummary& row : summary) {
    const auto it = rows.find(row.label);
    ASSERT_NE(it, rows.end()) << row.label;
    EXPECT_EQ(row.expected, it->second.first) << row.label;
    EXPECT_EQ(row.missing, it->second.second) << row.label;
  }
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

TEST_F(ArchiveStorePathTest, ShardedCensusScrubMatchesFileStorePath) {
  // Same content, same damage seed, two backends: the sharded archive's
  // census-planned repair must produce byte-identical blocks and the
  // identical wave/residue structure the flat FileBlockStore archive
  // reports.
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

  // Post-scrub census agreement: repairs flowed back into the census.
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

TEST_F(ArchiveStorePathTest, CensusIsGroundTruthForEveryCodec) {
  // AE keeps its census in the lattice array; RS and REP keep every
  // missing key in the overflow set, and REP(3)'s copies are indexed to
  // twice the data count.
  using tools::Archive;
  Rng rng(77);
  const Bytes first = rng.random_block(256 * 40 + 5);
  const Bytes second = rng.random_block(256 * 13 + 99);
  for (const char* codec : {"AE(3,2,5)", "RS(10,4)", "REP(3)"}) {
    SCOPED_TRACE(codec);
    const fs::path root = base_ / (std::string("a_") + codec);
    {
      auto archive = Archive::create(root, codec, 256,
                                     Engine::with_threads(2), "sharded(4)");
      archive->add_file("first", first);
      EXPECT_GT(archive->inject_damage(0.06, 13), 0u);
      {
        SCOPED_TRACE("after inject_damage");
        expect_census_is_ground_truth(*archive, root);
      }
      archive->scrub();
      {
        SCOPED_TRACE("after scrub");
        expect_census_is_ground_truth(*archive, root);
      }
      archive->add_file("second", second);
      {
        SCOPED_TRACE("after a second file");
        expect_census_is_ground_truth(*archive, root);
      }
      // Damage for the seeding walk to find at the reopen.
      EXPECT_GT(archive->inject_damage(0.04, 17), 0u);
      {
        SCOPED_TRACE("after more damage");
        expect_census_is_ground_truth(*archive, root);
      }
    }
    auto archive = Archive::open(root, Engine::with_threads(2));
    SCOPED_TRACE("reopened through the seeding walk");
    expect_census_is_ground_truth(*archive, root);
  }
}

TEST_F(ArchiveStorePathTest, CensusCoversWindowsAppendedBeforeAFailedOne) {
  // A file's second ingest window fails in the store. The first window
  // stays in the session, and the census must cover it at once, not
  // when the next writer or stat catches it up.
  static std::atomic<std::int64_t> puts_left{-1};  // < 0: unlimited
  class BudgetStore final : public BlockStore {
   public:
    void put(const BlockKey& key, Bytes value) override {
      if (puts_left.fetch_sub(1) == 0) throw std::runtime_error("disk full");
      inner_.put(key, std::move(value));
    }
    std::optional<Bytes> get_copy(const BlockKey& key) const override {
      return inner_.get_copy(key);
    }
    bool contains(const BlockKey& key) const override {
      return inner_.contains(key);
    }
    bool erase(const BlockKey& key) override { return inner_.erase(key); }
    std::uint64_t size() const override { return inner_.size(); }
    bool thread_safe() const noexcept override { return true; }
    bool for_each_key(
        const std::function<void(const BlockKey&)>& fn) const override {
      return inner_.for_each_key(fn);
    }
    void set_observer(Observer* observer) override {
      BlockStore::set_observer(observer);
      inner_.set_observer(observer);
    }

   private:
    pipeline::ConcurrentBlockStore inner_;
  };
  StoreRegistry::instance().register_family(
      "budgetcensustest", [](const StoreSpec&, const fs::path&) {
        return std::unique_ptr<BlockStore>(std::make_unique<BudgetStore>());
      });

  auto archive = tools::Archive::create(base_ / "budget", "AE(3,2,5)", 64,
                                        Engine::serial(),
                                        "budgetcensustest");
  const std::uint64_t window = archive->engine().ingest_window_blocks();
  // The first window's data and parities fit the budget; the second
  // window's do not.
  puts_left = static_cast<std::int64_t>(window * 4 + window / 2);
  Rng rng(31);
  {
    tools::FileWriter writer = archive->begin_file("f");
    EXPECT_THROW(writer.write(rng.random_block(64 * (2 * window + 3))),
                 std::runtime_error);
  }
  puts_left = -1;
  EXPECT_EQ(archive->blocks(), window);
  EXPECT_EQ(archive->health().n_nodes(), window);
}

}  // namespace
}  // namespace aec
