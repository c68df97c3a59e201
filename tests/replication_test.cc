#include <gtest/gtest.h>

#include "api/codec.h"
#include "common/check.h"
#include "common/rng.h"

namespace aec {
namespace {

TEST(Replication, EncodeMakesIdenticalCopies) {
  Rng rng(1);
  const Block block = Block::copy_of(rng.random_block(128));
  const ReplicationCodec rep(3);
  const auto copies = rep.encode({block});
  ASSERT_EQ(copies.size(), 2u);  // the data part is the third copy
  for (const auto& c : copies) EXPECT_EQ(c, block);
}

TEST(Replication, EncodeAndRepairHandOutThePresentBlock) {
  // A copy is a reference to the one buffer, not a fresh one.
  Rng rng(3);
  const Block block = Block::copy_of(rng.random_block(64));
  const ReplicationCodec rep(3);
  for (const Block& copy : rep.encode({block})) EXPECT_TRUE(copy.shares(block));
  std::vector<Block> parts{Block(), block, Block()};
  ASSERT_TRUE(rep.repair(parts));
  for (const Block& part : parts) EXPECT_TRUE(part.shares(block));
}

TEST(Replication, RepairUsesAnySurvivor) {
  Rng rng(2);
  const Block block = Block::copy_of(rng.random_block(64));
  const ReplicationCodec rep(4);
  std::vector<Block> parts(4);
  parts[2] = block;
  ASSERT_TRUE(rep.repair(parts));
  for (const auto& part : parts) EXPECT_EQ(part, block);
}

TEST(Replication, RepairFailsWhenAllLost) {
  const ReplicationCodec rep(2);
  std::vector<Block> parts(2);
  EXPECT_FALSE(rep.repair(parts));
  EXPECT_FALSE(parts[0] || parts[1]);
}

TEST(Replication, Validation) {
  EXPECT_THROW(ReplicationCodec(0), CheckError);
  const ReplicationCodec rep(3);
  std::vector<Block> one(1);
  EXPECT_THROW(rep.repair(one), CheckError);
  EXPECT_THROW(rep.encode({Block::copy_of(Bytes{1}), Block::copy_of(Bytes{2})}),
               CheckError);
  EXPECT_THROW(rep.encode({Block()}), CheckError);
  // The present copies of a stripe share one size.
  std::vector<Block> ragged{Block(), Block::copy_of(Bytes(64, 1)),
                            Block::copy_of(Bytes(10, 1))};
  EXPECT_THROW(rep.repair(ragged), CheckError);
  EXPECT_FALSE(ragged[0]);
  EXPECT_EQ(rep.id(), "REP(3)");
  EXPECT_EQ(rep.copies(), 3u);
}

}  // namespace
}  // namespace aec
