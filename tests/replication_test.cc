#include <gtest/gtest.h>

#include "api/codec.h"
#include "common/check.h"
#include "common/rng.h"

namespace aec {
namespace {

TEST(Replication, EncodeMakesIdenticalCopies) {
  Rng rng(1);
  const Bytes block = rng.random_block(128);
  const ReplicationCodec rep(3);
  const auto copies = rep.encode({block});
  ASSERT_EQ(copies.size(), 2u);  // the data part is the third copy
  for (const auto& c : copies) EXPECT_EQ(c, block);
}

TEST(Replication, RepairUsesAnySurvivor) {
  Rng rng(2);
  const Bytes block = rng.random_block(64);
  const ReplicationCodec rep(4);
  std::vector<std::optional<Bytes>> parts(4);
  parts[2] = block;
  const auto rebuilt = rep.repair(parts, {0, 1, 3});
  ASSERT_TRUE(rebuilt.has_value());
  ASSERT_EQ(rebuilt->size(), 3u);
  for (const auto& part : *rebuilt) EXPECT_EQ(part, block);
}

TEST(Replication, RepairFailsWhenAllLost) {
  const ReplicationCodec rep(2);
  EXPECT_FALSE(rep.repair({std::nullopt, std::nullopt}, {0, 1}).has_value());
}

TEST(Replication, Validation) {
  EXPECT_THROW(ReplicationCodec(0), CheckError);
  const ReplicationCodec rep(3);
  EXPECT_THROW(rep.repair({std::nullopt}, {0}), CheckError);
  EXPECT_THROW(rep.encode({Bytes{1}, Bytes{2}}), CheckError);
  EXPECT_EQ(rep.id(), "REP(3)");
  EXPECT_EQ(rep.copies(), 3u);
}

}  // namespace
}  // namespace aec
