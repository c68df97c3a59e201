// RsCodec, the one Reed-Solomon implementation: encode, in-place repair
// over the paper's parameter grid, and its input checks.
#include <gtest/gtest.h>

#include <span>
#include <tuple>

#include "api/codec.h"
#include "common/check.h"
#include "common/rng.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 64;

std::vector<Block> random_stripe_data(std::uint32_t k, Rng& rng) {
  std::vector<Block> data;
  for (std::uint32_t i = 0; i < k; ++i)
    data.push_back(Block::copy_of(rng.random_block(kBlockSize)));
  return data;
}

/// Data parts followed by their parities.
std::vector<Block> full_stripe(const RsCodec& rs,
                               const std::vector<Block>& data) {
  std::vector<Block> stripe = data;
  for (Block& parity : rs.encode(data)) stripe.push_back(std::move(parity));
  return stripe;
}

/// Nulls `count` distinct random parts of `stripe`.
void erase_random(std::vector<Block>& stripe, std::uint32_t count, Rng& rng) {
  std::uint32_t erased = 0;
  while (erased < count) {
    const auto victim = rng.uniform(stripe.size());
    if (stripe[victim]) {
      stripe[victim] = Block();
      ++erased;
    }
  }
}

TEST(ReedSolomon, Id) { EXPECT_EQ(RsCodec(10, 4).id(), "RS(10,4)"); }

TEST(ReedSolomon, EncodeProducesMParities) {
  Rng rng(1);
  const RsCodec rs(6, 3);
  const auto parity = rs.encode(random_stripe_data(6, rng));
  ASSERT_EQ(parity.size(), 3u);
  for (const auto& p : parity) EXPECT_EQ(p.size(), kBlockSize);
}

TEST(ReedSolomon, RepairOfAnIntactStripeChangesNothing) {
  Rng rng(2);
  const RsCodec rs(5, 2);
  const auto stripe = full_stripe(rs, random_stripe_data(5, rng));
  auto parts = stripe;
  ASSERT_TRUE(rs.repair(parts));
  for (std::size_t p = 0; p < stripe.size(); ++p)
    EXPECT_TRUE(parts[p].shares(stripe[p])) << "part " << p;
}

TEST(ReedSolomon, RepairLeavesThePresentBuffersInPlace) {
  // Only the missing parts are computed: every present part is still the
  // caller's buffer afterwards, and the rebuilt ones are fresh.
  Rng rng(4);
  const RsCodec rs(4, 2);
  const auto stripe = full_stripe(rs, random_stripe_data(4, rng));
  auto parts = stripe;
  parts[1] = Block();
  parts[5] = Block();
  ASSERT_TRUE(rs.repair(parts));
  for (std::size_t p = 0; p < stripe.size(); ++p) {
    EXPECT_EQ(parts[p], stripe[p]) << "part " << p;
    EXPECT_EQ(parts[p].shares(stripe[p]), p != 1 && p != 5) << "part " << p;
  }
}

TEST(ReedSolomon, RejectsBadInputs) {
  const RsCodec rs(4, 2);
  Rng rng(3);
  EXPECT_THROW(rs.encode(random_stripe_data(3, rng)), CheckError);
  std::vector<Block> ragged = random_stripe_data(4, rng);
  ragged[2] = Block::copy_of(rng.random_block(kBlockSize / 2));
  EXPECT_THROW(rs.encode(ragged), CheckError);
  std::vector<Block> with_null = random_stripe_data(4, rng);
  with_null[1] = Block();
  EXPECT_THROW(rs.encode(with_null), CheckError);

  // Repair takes the whole stripe, and its present parts share one size.
  std::vector<Block> none;
  EXPECT_THROW(rs.repair(none), CheckError);
  std::vector<Block> short_stripe = random_stripe_data(5, rng);
  EXPECT_THROW(rs.repair(short_stripe), CheckError);
  std::vector<Block> parts = full_stripe(rs, random_stripe_data(4, rng));
  parts[0] = Block();
  parts[3] = Block::copy_of(rng.random_block(10));
  const std::vector<Block> before = parts;
  EXPECT_THROW(rs.repair(parts), CheckError);
  for (std::size_t p = 0; p < parts.size(); ++p)
    EXPECT_TRUE(p == 0 ? !parts[p] : parts[p].shares(before[p]));

  EXPECT_THROW(RsCodec(0, 2), CheckError);
  EXPECT_THROW(RsCodec(2, 0), CheckError);
  EXPECT_THROW(RsCodec(200, 100), CheckError);
}

using Param = std::tuple<int, int>;  // k, m

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return "RS_" + std::to_string(std::get<0>(info.param)) + "_" +
         std::to_string(std::get<1>(info.param));
}

class RsGrid : public ::testing::TestWithParam<Param> {
 protected:
  RsCodec make_rs() const {
    return RsCodec(static_cast<std::uint32_t>(std::get<0>(GetParam())),
                   static_cast<std::uint32_t>(std::get<1>(GetParam())));
  }
};

TEST_P(RsGrid, RecoversFromEveryErasureCountUpToM) {
  const RsCodec rs = make_rs();
  Rng rng(17);
  const auto stripe = full_stripe(rs, random_stripe_data(rs.data_parts(), rng));

  for (std::uint32_t erasures = 1; erasures <= rs.parity_parts();
       ++erasures) {
    // Several random erasure patterns per count.
    for (int trial = 0; trial < 20; ++trial) {
      auto parts = stripe;
      erase_random(parts, erasures, rng);
      ASSERT_TRUE(rs.repair(parts))
          << rs.id() << " with " << erasures << " erasures";
      for (std::size_t p = 0; p < stripe.size(); ++p)
        ASSERT_EQ(parts[p], stripe[p]) << rs.id() << " part " << p;
    }
  }
}

TEST_P(RsGrid, FailsBeyondM) {
  const RsCodec rs = make_rs();
  Rng rng(23);
  auto parts = full_stripe(rs, random_stripe_data(rs.data_parts(), rng));
  erase_random(parts, rs.parity_parts() + 1, rng);
  const auto before = parts;
  EXPECT_FALSE(rs.repair(parts));
  for (std::size_t p = 0; p < parts.size(); ++p)
    EXPECT_TRUE(before[p] ? parts[p].shares(before[p]) : !parts[p])
        << "part " << p;
}

TEST_P(RsGrid, ParityOnlyReconstruction) {
  // Erase ALL data blocks when m ≥ k: parities alone must reconstruct.
  const RsCodec rs = make_rs();
  if (rs.parity_parts() < rs.data_parts()) return;
  Rng rng(29);
  const auto stripe = full_stripe(rs, random_stripe_data(rs.data_parts(), rng));
  auto parts = stripe;
  for (std::uint32_t i = 0; i < rs.data_parts(); ++i) parts[i] = Block();
  ASSERT_TRUE(rs.repair(parts));
  for (std::size_t p = 0; p < stripe.size(); ++p)
    EXPECT_EQ(parts[p], stripe[p]) << "part " << p;
}

INSTANTIATE_TEST_SUITE_P(PaperSettings, RsGrid,
                         ::testing::Values(Param{10, 4}, Param{8, 2},
                                           Param{5, 5}, Param{4, 12},
                                           Param{6, 3}, Param{2, 2},
                                           Param{1, 1}, Param{16, 4}),
                         param_name);

TEST(ReedSolomon, LinearityOverStripes) {
  // parity(a XOR b) == parity(a) XOR parity(b): the code is GF-linear.
  Rng rng(31);
  const RsCodec rs(4, 2);
  const auto a = random_stripe_data(4, rng);
  const auto b = random_stripe_data(4, rng);
  std::vector<Block> both;
  for (std::size_t i = 0; i < 4; ++i)
    both.push_back(Block::build(kBlockSize, [&](std::span<std::uint8_t> x) {
      for (std::size_t j = 0; j < kBlockSize; ++j)
        x[j] = a[i].data()[j] ^ b[i].data()[j];
    }));
  const auto pa = rs.encode(a);
  const auto pb = rs.encode(b);
  const auto pboth = rs.encode(both);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < kBlockSize; ++j)
      ASSERT_EQ(pboth[i].data()[j], pa[i].data()[j] ^ pb[i].data()[j]);
}

}  // namespace
}  // namespace aec
