#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/xor_engine.h"

namespace aec {
namespace {

TEST(XorEngine, XorIntoBasic) {
  Bytes a{0x00, 0xFF, 0x0F, 0xAA};
  const Bytes b{0xFF, 0xFF, 0xF0, 0x55};
  xor_into(a, b);
  EXPECT_EQ(a, (Bytes{0xFF, 0x00, 0xFF, 0xFF}));
}

TEST(XorEngine, XorOfDoesNotMutateInputs) {
  const Bytes a{1, 2, 3};
  const Bytes b{4, 5, 6};
  const Block c = xor_of(a, b);
  EXPECT_EQ(c, (Bytes{5, 7, 5}));
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  EXPECT_EQ(b, (Bytes{4, 5, 6}));
}

TEST(XorEngine, SelfInverse) {
  Rng rng(42);
  const Bytes a = rng.random_block(1031);  // odd size: exercises tail loop
  const Bytes b = rng.random_block(1031);
  Bytes c = xor_of(a, b).to_bytes();
  xor_into(c, b);
  EXPECT_EQ(c, a);
}

TEST(XorEngine, AllSizesUpTo64) {
  Rng rng(7);
  for (std::size_t size = 0; size <= 64; ++size) {
    const Bytes a = rng.random_block(size);
    const Bytes b = rng.random_block(size);
    const Bytes c = xor_of(a, b).to_bytes();
    for (std::size_t i = 0; i < size; ++i)
      ASSERT_EQ(c[i], a[i] ^ b[i]) << "size=" << size << " i=" << i;
  }
}

TEST(XorEngine, SizeMismatchThrows) {
  Bytes a{1, 2, 3};
  const Bytes b{1, 2};
  EXPECT_THROW(xor_into(a, b), CheckError);
  EXPECT_THROW(xor_of(a, b), CheckError);
}

TEST(XorEngine, AllZero) {
  EXPECT_TRUE(all_zero(Bytes{}));
  EXPECT_TRUE(all_zero(Bytes{0, 0, 0}));
  EXPECT_FALSE(all_zero(Bytes{0, 1, 0}));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(7), 7u);
    EXPECT_EQ(rng.uniform(1), 0u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.uniform(10)];
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMeanApprox) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, RandomBlockSizeAndVariety) {
  Rng rng(31);
  const Bytes b = rng.random_block(4096);
  ASSERT_EQ(b.size(), 4096u);
  // A uniform block of 4 KiB certainly has >100 distinct byte values.
  std::vector<bool> present(256, false);
  for (std::uint8_t v : b) present[v] = true;
  EXPECT_GT(std::count(present.begin(), present.end(), true), 100);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_EQ(s.count, 8u);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, HistogramCountsAndFormat) {
  Histogram h;
  h.add(3);
  h.add(3);
  h.add(5, 7);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(5), 7u);
  EXPECT_EQ(h.count(4), 0u);
  EXPECT_EQ(h.total(), 9u);
  EXPECT_EQ(h.to_string(), "3(2) 5(7)");
}

TEST(Check, ThrowsWithMessage) {
  try {
    AEC_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace aec
