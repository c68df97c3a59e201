#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "store/raid_ae.h"

namespace aec::store {
namespace {

constexpr std::size_t kBlockSize = 32;

std::vector<Bytes> write_blocks(RaidAeArray& array, std::size_t count,
                                std::uint64_t seed = 11) {
  Rng rng(seed);
  std::vector<Bytes> truth;
  for (std::size_t i = 0; i < count; ++i) {
    truth.push_back(rng.random_block(kBlockSize));
    array.write_block(truth.back());
  }
  return truth;
}

TEST(RaidAe, WritePenaltyIsAlphaPlusOne) {
  RaidAeArray array(CodeParams(3, 2, 5), 8, kBlockSize);
  EXPECT_EQ(array.write_penalty(), 4u);  // paper: "the write penalty is α+1"
  RaidAeArray single(CodeParams::single(), 4, kBlockSize);
  EXPECT_EQ(single.write_penalty(), 2u);
}

TEST(RaidAe, WriteBlockTakesExactlyOneBlock) {
  // A session appends any whole number of blocks; write_block is one
  // block, so a run of two, or a part block, is refused and stores
  // nothing.
  RaidAeArray array(CodeParams(3, 2, 5), 4, kBlockSize);
  Rng rng(5);
  EXPECT_THROW(array.write_block(rng.random_block(2 * kBlockSize)),
               CheckError);
  EXPECT_THROW(array.write_block(rng.random_block(kBlockSize - 1)),
               CheckError);
  EXPECT_EQ(array.blocks_written(), 0u);
  EXPECT_EQ(array.write_block(rng.random_block(kBlockSize)), 1);
  EXPECT_EQ(array.blocks_written(), 1u);
}

TEST(RaidAe, BlocksSpreadRoundRobin) {
  const CodeParams params(2, 2, 2);
  RaidAeArray array(params, 4, kBlockSize);
  write_blocks(array, 8);
  // Arrival order per block: its α parities in class order, then the
  // data block — write k (0-based) lands on drive k mod 4. Block i's
  // writes are 3(i−1) + c for class c and 3(i−1) + 2 for the data.
  // 8 data + 16 parity = 24 block writes over 4 drives → 6 each.
  const Lattice lattice(params, 8, Lattice::Boundary::kOpen);
  std::vector<std::uint32_t> per_drive(4, 0);
  for (NodeIndex i = 1; i <= 8; ++i) {
    const auto base = static_cast<std::uint32_t>(3 * (i - 1));
    EXPECT_EQ(array.drive_of_data(i), (base + 2) % 4) << "d" << i;
    ++per_drive[array.drive_of_data(i)];
    for (StrandClass cls : params.classes()) {
      const auto c = static_cast<std::uint32_t>(cls);
      const std::uint32_t drive =
          array.drive_of_parity(lattice.output_edge(i, cls));
      EXPECT_EQ(drive, (base + c) % 4) << to_string(cls) << " of " << i;
      ++per_drive[drive];
    }
  }
  EXPECT_EQ(per_drive, (std::vector<std::uint32_t>{6, 6, 6, 6}));
}

TEST(RaidAe, HealthyReadFetchesOneBlock) {
  RaidAeArray array(CodeParams(3, 2, 5), 6, kBlockSize);
  const auto truth = write_blocks(array, 20);
  const auto r = array.degraded_read(7);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, truth[6]);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.blocks_fetched, 1u);
}

TEST(RaidAe, DegradedReadUsesTwoBlocksForSingleFailure) {
  RaidAeArray array(CodeParams(3, 2, 5), 6, kBlockSize);
  const auto truth = write_blocks(array, 30);
  const NodeIndex target = 15;
  array.set_drive_online(array.drive_of_data(target), false);

  const auto r = array.degraded_read(target);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, truth[static_cast<std::size_t>(target - 1)]);
  EXPECT_TRUE(r.degraded);
  // The shortest path is one pp-tuple: 2 reads — unless one of those
  // parities shares the dead drive, in which case a short detour adds a
  // couple of fetches. Either way the fan-in stays far below RS's k.
  EXPECT_GE(r.blocks_fetched, 2u);
  EXPECT_LE(r.blocks_fetched, 6u);
}

TEST(RaidAe, DegradedReadDoesNotMutateTheArray) {
  RaidAeArray array(CodeParams(3, 2, 5), 6, kBlockSize);
  const auto truth = write_blocks(array, 30);
  const std::uint32_t victim = array.drive_of_data(10);
  array.set_drive_online(victim, false);
  const std::uint64_t checksum = array.parity_checksum();
  array.degraded_read(10);
  EXPECT_EQ(array.parity_checksum(), checksum);
  // Drive returns: the original block is served directly again.
  array.set_drive_online(victim, true);
  const auto r = array.degraded_read(10);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(*r.value, truth[9]);
}

TEST(RaidAe, AddDriveDoesNotReencode) {
  // The "never-ending stripe": growing the array must not touch any
  // existing parity (contrast: RAID5 re-encodes every stripe).
  RaidAeArray array(CodeParams(3, 2, 5), 4, kBlockSize);
  write_blocks(array, 40);
  const std::uint64_t checksum = array.parity_checksum();
  array.add_drive();
  EXPECT_EQ(array.drive_count(), 5u);
  EXPECT_EQ(array.parity_checksum(), checksum);
  // New writes use the larger array transparently.
  write_blocks(array, 10, 77);
  EXPECT_EQ(array.blocks_written(), 50u);
}

TEST(RaidAe, RebuildRegeneratesDriveAtTwoReadsPerBlock) {
  RaidAeArray array(CodeParams(3, 2, 5), 8, kBlockSize);
  const auto truth = write_blocks(array, 80);
  const std::uint32_t victim = 3;
  const auto report = array.rebuild_drive(victim);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_GT(report.blocks_rebuilt, 0u);
  // Single-failure repairs need 2 reads each; cascades can add a few.
  EXPECT_LE(report.blocks_read, 4 * report.blocks_rebuilt);
  // Everything reads back correctly after the rebuild.
  for (NodeIndex i = 1; i <= 80; ++i) {
    const auto r = array.degraded_read(i);
    ASSERT_TRUE(r.value.has_value()) << i;
    EXPECT_EQ(*r.value, truth[static_cast<std::size_t>(i - 1)]) << i;
  }
}

TEST(RaidAe, SurvivesRepeatedDriveReplacements) {
  RaidAeArray array(CodeParams(3, 2, 5), 10, kBlockSize);
  const auto truth = write_blocks(array, 60);
  for (std::uint32_t victim : {1u, 5u, 8u}) {
    const auto report = array.rebuild_drive(victim);
    EXPECT_EQ(report.unrecoverable, 0u) << victim;
  }
  for (NodeIndex i = 1; i <= 60; ++i) {
    const auto r = array.degraded_read(i);
    ASSERT_TRUE(r.value.has_value()) << i;
    EXPECT_EQ(*r.value, truth[static_cast<std::size_t>(i - 1)]) << i;
  }
}

}  // namespace
}  // namespace aec::store
