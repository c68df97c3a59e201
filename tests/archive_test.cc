#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "tools/archive.h"

namespace aec::tools {
namespace {

namespace fs = std::filesystem;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aec_archive_test_" + std::string(::testing::UnitTest::
                                                   GetInstance()
                                                       ->current_test_info()
                                                       ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ArchiveTest, CreateAndReopen) {
  {
    auto archive = Archive::create(root_, CodeParams(3, 2, 5).name(), 256);
    EXPECT_EQ(archive->blocks(), 0u);
    EXPECT_EQ(archive->params().name(), "AE(3,2,5)");
  }
  auto reopened = Archive::open(root_);
  EXPECT_EQ(reopened->params().name(), "AE(3,2,5)");
  EXPECT_EQ(reopened->block_size(), 256u);
  EXPECT_THROW(Archive::create(root_, CodeParams(2, 2, 2).name(), 256),
               CheckError);
  EXPECT_THROW(Archive::open(root_ / "nowhere"), CheckError);
}

TEST_F(ArchiveTest, AddAndReadFiles) {
  auto archive = Archive::create(root_, CodeParams(3, 2, 5).name(), 128);
  Rng rng(1);
  const Bytes a = rng.random_block(1000);  // pads to 8 blocks
  const Bytes b = rng.random_block(128);   // exactly one block
  const Bytes c = rng.random_block(1);     // tiny
  archive->add_file("a", a);
  archive->add_file("b", b);
  archive->add_file("dir/with spaces + utf8 ✓", c);
  EXPECT_EQ(archive->files().size(), 3u);
  EXPECT_EQ(archive->blocks(), 8u + 1u + 1u);

  EXPECT_EQ(archive->read_file("a"), a);
  EXPECT_EQ(archive->read_file("b"), b);
  EXPECT_EQ(archive->read_file("dir/with spaces + utf8 ✓"), c);
  EXPECT_FALSE(archive->read_file("missing").has_value());
  EXPECT_THROW(archive->add_file("a", b), CheckError);
}

TEST_F(ArchiveTest, FilesSurviveReopen) {
  Rng rng(2);
  const Bytes payload = rng.random_block(3000);
  {
    auto archive = Archive::create(root_, CodeParams(2, 2, 5).name(), 256);
    archive->add_file("doc", payload);
  }
  auto archive = Archive::open(root_);
  ASSERT_EQ(archive->files().size(), 1u);
  EXPECT_EQ(archive->files()[0].bytes, 3000u);
  EXPECT_EQ(archive->read_file("doc"), payload);
  // Appending after reopen continues the same lattice.
  const Bytes more = rng.random_block(100);
  archive->add_file("more", more);
  EXPECT_EQ(archive->read_file("more"), more);
  const auto scrub = archive->scrub();
  EXPECT_EQ(scrub.inconsistent_parities, 0u);  // entanglement consistent
}

TEST_F(ArchiveTest, SurvivesHeavyDamage) {
  auto archive = Archive::create(root_, CodeParams(3, 2, 5).name(), 128);
  Rng rng(3);
  const Bytes payload = rng.random_block(128 * 40);
  archive->add_file("big", payload);

  const std::uint64_t destroyed = archive->inject_damage(0.25, 7);
  EXPECT_GT(destroyed, 10u);
  EXPECT_EQ(archive->missing_blocks(), destroyed);

  const ScrubReport report = archive->scrub();
  EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
  EXPECT_EQ(archive->missing_blocks(), 0u);
  EXPECT_EQ(archive->read_file("big"), payload);
}

TEST_F(ArchiveTest, ReadRepairsLazilyWithoutScrub) {
  auto archive = Archive::create(root_, CodeParams(3, 2, 5).name(), 128);
  Rng rng(4);
  const Bytes payload = rng.random_block(128 * 20);
  archive->add_file("doc", payload);
  archive->inject_damage(0.15, 11);
  EXPECT_EQ(archive->read_file("doc"), payload);  // repair on read
}

TEST_F(ArchiveTest, ScrubFlagsTampering) {
  auto archive = Archive::create(root_, CodeParams(3, 2, 5).name(), 64);
  Rng rng(5);
  archive->add_file("doc", rng.random_block(64 * 20));

  // Forge a data block file directly on disk.
  FileBlockStore store(root_);
  Bytes forged = *store.get_copy(BlockKey::data(7));
  forged[5] ^= 0x01;
  store.put(BlockKey::data(7), forged);

  auto reopened = Archive::open(root_);
  const ScrubReport report = reopened->scrub();
  ASSERT_EQ(report.suspect_nodes.size(), 1u);
  EXPECT_EQ(report.suspect_nodes[0], 7);
  EXPECT_GT(report.inconsistent_parities, 0u);
}

TEST_F(ArchiveTest, ScrubExitsNonZeroOnCorruption) {
  // One byte of d/14 flipped on disk in a `file` AE(3,2,5) archive: the
  // scrub reports the corruption without repairing it, so `aectool scrub`
  // (and `aecc scrub`, from the same counts) must not exit 0.
  Rng rng(6);
  Archive::create(root_, "AE(3,2,5)", 1024)
      ->add_file("doc", rng.random_block(200000));
  const auto status = [](const ScrubReport& report) {
    return cli::scrub_exit_status(report.repair.nodes_unrecovered,
                                  report.inconsistent_parities,
                                  report.suspect_nodes.size());
  };
  EXPECT_EQ(status(Archive::open(root_)->scrub()), 0);
  {
    std::fstream block(root_ / "d" / "14",
                       std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(block.is_open());
    block.seekg(100);
    const char byte = static_cast<char>(block.get() ^ 0x5A);
    block.seekp(100);
    block.put(byte);
  }
  const ScrubReport report = Archive::open(root_)->scrub();
  EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
  EXPECT_EQ(report.inconsistent_parities, 3u);
  EXPECT_EQ(report.suspect_nodes, std::vector<NodeIndex>{14});
  EXPECT_EQ(status(report), 1);
  // Each finding alone fails the scrub.
  EXPECT_EQ(cli::scrub_exit_status(1, 0, 0), 1);
  EXPECT_EQ(cli::scrub_exit_status(0, 1, 0), 1);
  EXPECT_EQ(cli::scrub_exit_status(0, 0, 1), 1);
  EXPECT_EQ(cli::scrub_exit_status(0, 0, 0), 0);
}

}  // namespace
}  // namespace aec::tools
