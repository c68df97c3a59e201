#include <gtest/gtest.h>

#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "rs/reed_solomon.h"

namespace aec::rs {
namespace {

constexpr std::size_t kBlockSize = 64;

std::vector<Bytes> random_stripe_data(std::uint32_t k, Rng& rng) {
  std::vector<Bytes> data;
  for (std::uint32_t i = 0; i < k; ++i)
    data.push_back(rng.random_block(kBlockSize));
  return data;
}

std::vector<std::optional<Bytes>> full_stripe(
    const std::vector<Bytes>& data, const std::vector<Bytes>& parity) {
  std::vector<std::optional<Bytes>> stripe;
  for (const auto& b : data) stripe.emplace_back(b);
  for (const auto& b : parity) stripe.emplace_back(b);
  return stripe;
}

TEST(ReedSolomon, Name) {
  EXPECT_EQ(ReedSolomon(10, 4).name(), "RS(10,4)");
}

TEST(ReedSolomon, EncodeProducesMParities) {
  Rng rng(1);
  const ReedSolomon rs(6, 3);
  const auto data = random_stripe_data(6, rng);
  const auto parity = rs.encode(data);
  ASSERT_EQ(parity.size(), 3u);
  for (const auto& p : parity) EXPECT_EQ(p.size(), kBlockSize);
}

TEST(ReedSolomon, DecodeIntactStripeIsIdentity) {
  Rng rng(2);
  const ReedSolomon rs(5, 2);
  const auto data = random_stripe_data(5, rng);
  const auto decoded = rs.decode(full_stripe(data, rs.encode(data)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(ReedSolomon, RejectsBadInputs) {
  const ReedSolomon rs(4, 2);
  Rng rng(3);
  EXPECT_THROW(rs.encode(random_stripe_data(3, rng)), aec::CheckError);
  std::vector<Bytes> ragged = random_stripe_data(4, rng);
  ragged[2].resize(kBlockSize / 2);
  EXPECT_THROW(rs.encode(ragged), aec::CheckError);
  EXPECT_THROW(rs.decode({}), aec::CheckError);
  EXPECT_THROW(ReedSolomon(0, 2), aec::CheckError);
  EXPECT_THROW(ReedSolomon(2, 0), aec::CheckError);
  EXPECT_THROW(ReedSolomon(200, 100), aec::CheckError);
}

using Param = std::tuple<int, int>;  // k, m

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return "RS_" + std::to_string(std::get<0>(info.param)) + "_" +
         std::to_string(std::get<1>(info.param));
}

class RsGrid : public ::testing::TestWithParam<Param> {
 protected:
  ReedSolomon make_rs() const {
    return ReedSolomon(static_cast<std::uint32_t>(std::get<0>(GetParam())),
                       static_cast<std::uint32_t>(std::get<1>(GetParam())));
  }
};

TEST_P(RsGrid, RecoversFromEveryErasureCountUpToM) {
  const ReedSolomon rs = make_rs();
  Rng rng(17);
  const auto data = random_stripe_data(rs.k(), rng);
  const auto parity = rs.encode(data);

  for (std::uint32_t erasures = 1; erasures <= rs.m(); ++erasures) {
    // Several random erasure patterns per count.
    for (int trial = 0; trial < 20; ++trial) {
      auto stripe = full_stripe(data, parity);
      std::uint32_t erased = 0;
      while (erased < erasures) {
        const auto victim = rng.uniform(stripe.size());
        if (stripe[victim]) {
          stripe[victim].reset();
          ++erased;
        }
      }
      const auto decoded = rs.decode(stripe);
      ASSERT_TRUE(decoded.has_value())
          << rs.name() << " with " << erasures << " erasures";
      ASSERT_EQ(*decoded, data);
    }
  }
}

TEST_P(RsGrid, FailsBeyondM) {
  const ReedSolomon rs = make_rs();
  Rng rng(23);
  const auto data = random_stripe_data(rs.k(), rng);
  auto stripe = full_stripe(data, rs.encode(data));
  // Erase m+1 blocks.
  std::uint32_t erased = 0;
  while (erased < rs.m() + 1) {
    const auto victim = rng.uniform(stripe.size());
    if (stripe[victim]) {
      stripe[victim].reset();
      ++erased;
    }
  }
  EXPECT_FALSE(rs.decode(stripe).has_value());
}

TEST_P(RsGrid, ParityOnlyReconstruction) {
  // Erase ALL data blocks when m ≥ k: parities alone must reconstruct.
  const ReedSolomon rs = make_rs();
  if (rs.m() < rs.k()) return;
  Rng rng(29);
  const auto data = random_stripe_data(rs.k(), rng);
  auto stripe = full_stripe(data, rs.encode(data));
  for (std::uint32_t i = 0; i < rs.k(); ++i) stripe[i].reset();
  const auto decoded = rs.decode(stripe);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
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
  const ReedSolomon rs(4, 2);
  const auto a = random_stripe_data(4, rng);
  const auto b = random_stripe_data(4, rng);
  std::vector<Bytes> both;
  for (std::size_t i = 0; i < 4; ++i) {
    Bytes x = a[i];
    for (std::size_t j = 0; j < kBlockSize; ++j) x[j] ^= b[i][j];
    both.push_back(std::move(x));
  }
  const auto pa = rs.encode(a);
  const auto pb = rs.encode(b);
  const auto pboth = rs.encode(both);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < kBlockSize; ++j)
      ASSERT_EQ(pboth[i][j], pa[i][j] ^ pb[i][j]);
}

}  // namespace
}  // namespace aec::rs
