// Availability sidecar: a clean close persists the missing set,
// the next open consumes it instead of walking the lattice, and every
// staleness path (external mutation while closed, garbage content,
// crash without a sidecar) falls back to the full seeding walk. Plus
// the reindex() recovery path for out-of-band damage the health census
// cannot observe while the archive is open.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

using tools::Archive;

class ArchiveSidecarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_sidecar_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path root() const { return base_ / "arch"; }

  /// Fresh archive with one file and `damage_fraction` injected, closed
  /// cleanly (writes the sidecar).
  void create_archive(double damage_fraction) {
    Rng rng(31);
    auto archive = Archive::create(root(), "AE(3,2,5)", 128, {}, "file");
    archive->add_file("doc", rng.random_block(50 * 128));
    if (damage_fraction > 0.0)
      archive->inject_damage(damage_fraction, /*seed=*/3);
  }

  fs::path base_;
};

TEST_F(ArchiveSidecarTest, CleanCloseRoundTripsMissingSet) {
  create_archive(0.1);
  std::uint64_t missing_before = 0;
  {
    auto archive = Archive::open(root());
    // First reopen after create_archive's close: the sidecar is fresh.
    EXPECT_TRUE(archive->opened_from_sidecar());
    missing_before = archive->missing_blocks();
    EXPECT_GT(missing_before, 0u);
    // Consumed on read: a crash from here on cannot reuse it.
    EXPECT_FALSE(fs::exists(root() / "availability.txt"));
  }
  // The close above rewrote it; the missing set survives another cycle.
  ASSERT_TRUE(fs::exists(root() / "availability.txt"));
  auto archive = Archive::open(root());
  EXPECT_TRUE(archive->opened_from_sidecar());
  EXPECT_EQ(archive->missing_blocks(), missing_before);
  // A scrub heals everything; the census (and next close's sidecar)
  // follow along.
  archive->scrub();
  EXPECT_EQ(archive->missing_blocks(), 0u);
}

TEST_F(ArchiveSidecarTest, SidecarAgreesWithFullSeedWalk) {
  create_archive(0.15);
  std::uint64_t via_sidecar = 0;
  {
    auto archive = Archive::open(root());
    ASSERT_TRUE(archive->opened_from_sidecar());
    via_sidecar = archive->missing_blocks();
  }
  fs::remove(root() / "availability.txt");
  auto archive = Archive::open(root());
  EXPECT_FALSE(archive->opened_from_sidecar());
  EXPECT_EQ(archive->missing_blocks(), via_sidecar);
}

TEST_F(ArchiveSidecarTest, ExternalDeletionWhileClosedInvalidatesSidecar) {
  create_archive(0.0);
  // Damage out of band while the archive is closed: the sidecar's
  // stored-block freshness guard must reject it and reseed fully.
  ASSERT_TRUE(fs::exists(root() / "availability.txt"));
  ASSERT_TRUE(fs::exists(root() / "d" / "5"));
  fs::remove(root() / "d" / "5");
  auto archive = Archive::open(root());
  EXPECT_FALSE(archive->opened_from_sidecar());
  EXPECT_EQ(archive->missing_blocks(), 1u);
}

TEST_F(ArchiveSidecarTest, GarbageSidecarFallsBackToFullSeed) {
  create_archive(0.1);
  std::uint64_t expected_missing = 0;
  {
    auto archive = Archive::open(root());
    expected_missing = archive->missing_blocks();
  }
  for (const char* garbage :
       {"not a sidecar at all\n",
        "aec-availability v1\nblocks 50\npresent 1\nmissing 0\nend\n",
        "aec-availability v1\nblocks 50\nmissing 1\nm d 5\n",  // no end
        "aec-availability v1\nblocks 50\npresent 200\nmissing 1\n"
        "m z 5\nend\n",
        "aec-availability v1\nblocks 50\npresent 200\nmissing 2\n"
        "m d 5\nend\n"}) {
    {
      std::ofstream out(root() / "availability.txt", std::ios::trunc);
      out << garbage;
    }
    auto archive = Archive::open(root());
    EXPECT_FALSE(archive->opened_from_sidecar()) << garbage;
    EXPECT_EQ(archive->missing_blocks(), expected_missing) << garbage;
  }
}

TEST_F(ArchiveSidecarTest, ReindexRecoversFromOutOfBandDamage) {
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
