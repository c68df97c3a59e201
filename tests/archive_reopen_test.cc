// Archive reopen and census seeding: every open seeds the health census
// by walking the expected keys against the index the store built as it
// opened, so damage made while the archive was closed is counted at the
// next open — a deleted block file, also when another is copied in and
// the store's block count stays the same. Plus the reindex() recovery
// path for out-of-band damage the census cannot observe while the
// archive is open.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

using tools::Archive;

class ArchiveReopenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_reopen_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path root() const { return base_ / "arch"; }

  /// Fresh flat `file` archive of 50 data blocks holding content_ as
  /// "doc", with `damage_fraction` injected, closed. Returns the blocks
  /// destroyed.
  std::uint64_t create_archive(double damage_fraction) {
    auto archive = Archive::create(root(), "AE(3,2,5)", 128, {}, "file");
    archive->add_file("doc", content_);
    return damage_fraction > 0.0
               ? archive->inject_damage(damage_fraction, /*seed=*/3)
               : 0;
  }

  fs::path base_;
  const Bytes content_ = Rng(31).random_block(50 * 128);
};

TEST_F(ArchiveReopenTest, DamageSurvivesReopens) {
  const std::uint64_t destroyed = create_archive(0.1);
  ASSERT_GT(destroyed, 0u);
  {
    auto archive = Archive::open(root());
    EXPECT_EQ(archive->missing_blocks(), destroyed);
  }
  auto archive = Archive::open(root());
  EXPECT_EQ(archive->missing_blocks(), destroyed);
  archive->scrub();
  EXPECT_EQ(archive->missing_blocks(), 0u);
}

TEST_F(ArchiveReopenTest, DeletionWhileClosedIsSeenAtReopen) {
  create_archive(0.0);
  ASSERT_TRUE(fs::exists(root() / "d" / "5"));
  fs::remove(root() / "d" / "5");
  auto archive = Archive::open(root());
  EXPECT_EQ(archive->missing_blocks(), 1u);
}

TEST_F(ArchiveReopenTest, SwapWhileClosedIsSeenAndRepaired) {
  // While the archive is closed, one data block file is deleted and
  // another is copied past the tail: the store holds as many blocks as
  // before. A leftover availability.txt from an older build lists
  // nothing missing, with count guards that match the swapped store.
  create_archive(0.0);
  const fs::path lost = root() / "d" / "14";
  ASSERT_TRUE(fs::remove(lost));
  fs::copy_file(root() / "d" / "15", root() / "d" / "999999");
  std::uint64_t stored = 0;
  for (const char* dir : {"d", "p"})
    for (const auto& entry : fs::recursive_directory_iterator(root() / dir))
      stored += entry.is_regular_file() ? 1 : 0;
  {
    std::ofstream out(root() / "availability.txt", std::ios::trunc);
    out << "aec-availability v1\nblocks 50\npresent " << stored
        << "\nmissing 0\nend\n";
  }
  {
    auto archive = Archive::open(root());
    EXPECT_EQ(archive->missing_blocks(), 1u);
    EXPECT_FALSE(fs::exists(root() / "availability.txt"));
  }
  // No close writes one back; the next open walks the store again.
  EXPECT_FALSE(fs::exists(root() / "availability.txt"));
  auto archive = Archive::open(root());
  EXPECT_EQ(archive->missing_blocks(), 1u);
  archive->scrub();
  EXPECT_EQ(archive->missing_blocks(), 0u);
  EXPECT_TRUE(fs::exists(lost));
  EXPECT_EQ(archive->read_file("doc"), content_);
  EXPECT_FALSE(fs::exists(root() / "availability.txt"));
}

TEST_F(ArchiveReopenTest, ReindexRecoversFromOutOfBandDamage) {
  create_archive(0.0);
  auto archive = Archive::open(root());
  ASSERT_EQ(archive->missing_blocks(), 0u);
  // Delete a block file behind the open archive's back: the census (and
  // a scrub planned from it) cannot see the damage — the documented
  // limitation…
  ASSERT_TRUE(fs::exists(root() / "d" / "7"));
  fs::remove(root() / "d" / "7");
  EXPECT_EQ(archive->missing_blocks(), 0u);
  // …and reindex() is the recovery path: rescan + reseed.
  EXPECT_EQ(archive->reindex(), 1u);
  EXPECT_EQ(archive->missing_blocks(), 1u);
  archive->scrub();
  EXPECT_EQ(archive->missing_blocks(), 0u);
  EXPECT_TRUE(fs::exists(root() / "d" / "7"));
}

}  // namespace
}  // namespace aec
