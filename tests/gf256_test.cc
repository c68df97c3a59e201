#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "gf/gf256.h"

namespace aec::gf {
namespace {

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(add(0, 0xFF), 0xFF);
  EXPECT_EQ(sub(0x53, 0xCA), add(0x53, 0xCA));
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<Elem>(a), 1), a);
    EXPECT_EQ(mul(1, static_cast<Elem>(a)), a);
    EXPECT_EQ(mul(static_cast<Elem>(a), 0), 0);
  }
}

TEST(Gf256, KnownProducts) {
  // Classic AES-field examples (poly 0x11D differs from AES's 0x11B, so
  // use products verified against this polynomial).
  EXPECT_EQ(mul(2, 0x80), 0x1D);   // x·x^7 = x^8 ≡ 0x1D
  EXPECT_EQ(mul(4, 0x80), 0x3A);
  EXPECT_EQ(mul(3, 7), 9);         // (x+1)(x^2+x+1) = x^3+1
}

TEST(Gf256, MultiplicationCommutesAndAssociates) {
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const Elem a = static_cast<Elem>(rng.uniform(256));
    const Elem b = static_cast<Elem>(rng.uniform(256));
    const Elem c = static_cast<Elem>(rng.uniform(256));
    EXPECT_EQ(mul(a, b), mul(b, a));
    EXPECT_EQ(mul(a, mul(b, c)), mul(mul(a, b), c));
  }
}

TEST(Gf256, DistributivityOverAddition) {
  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    const Elem a = static_cast<Elem>(rng.uniform(256));
    const Elem b = static_cast<Elem>(rng.uniform(256));
    const Elem c = static_cast<Elem>(rng.uniform(256));
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
  }
}

TEST(Gf256, EveryNonZeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const Elem ia = inv(static_cast<Elem>(a));
    EXPECT_EQ(mul(static_cast<Elem>(a), ia), 1) << a;
  }
  EXPECT_THROW(inv(0), CheckError);
}

TEST(Gf256, DivisionInvertsMultiplication) {
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const Elem a = static_cast<Elem>(rng.uniform(256));
    const Elem b = static_cast<Elem>(1 + rng.uniform(255));
    EXPECT_EQ(div(mul(a, b), b), a);
  }
  EXPECT_THROW(div(5, 0), CheckError);
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
  for (int a = 0; a < 256; ++a) {
    Elem acc = 1;
    for (std::uint32_t n = 0; n <= 8; ++n) {
      EXPECT_EQ(pow(static_cast<Elem>(a), n), acc) << a << "^" << n;
      acc = mul(acc, static_cast<Elem>(a));
    }
  }
}

TEST(Gf256, GeneratorHasFullOrder) {
  // 0x02 generates the multiplicative group: 255 distinct powers.
  std::vector<bool> seen(256, false);
  Elem x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
    x = mul(x, 2);
  }
  EXPECT_EQ(x, 1);  // order exactly 255
}

TEST(Gf256, ExpLogRoundTrip) {
  for (int a = 1; a < 256; ++a)
    EXPECT_EQ(exp_table(log_table(static_cast<Elem>(a))), a);
  EXPECT_THROW(log_table(0), CheckError);
}

TEST(Gf256, MulAccMatchesScalarLoop) {
  Rng rng(4);
  const Bytes src = rng.random_block(333);
  for (Elem coeff : {Elem{0}, Elem{1}, Elem{2}, Elem{77}, Elem{255}}) {
    Bytes dst = rng.random_block(333);
    Bytes expected = dst;
    for (std::size_t i = 0; i < src.size(); ++i)
      expected[i] = add(expected[i], mul(coeff, src[i]));
    axpy_slice(dst.data(), src.data(), dst.size(), coeff);
    EXPECT_EQ(dst, expected) << "coeff " << int(coeff);
  }
}

}  // namespace
}  // namespace aec::gf
