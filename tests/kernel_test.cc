// Conformance suite for the runtime-dispatched compute kernels: every
// CPU-supported SIMD variant of the XOR kernel (xor3) and the GF(256)
// buffer ops must be byte-identical to the scalar reference across
// awkward sizes (0..257 straddles every sub-vector tail), unaligned
// offsets and full aliasing of dst with a source. The CI matrix also
// runs this binary under AEC_KERNEL overrides (plain, TSan and UBSan
// jobs), which exercises the dispatched entry points pinned to each
// tier.
#include <gtest/gtest.h>

#include <cstring>

#include "common/check.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/xor_engine.h"
#include "gf/gf256.h"

namespace aec {
namespace {

TEST(KernelDispatch, ScalarVariantIsAlwaysListed) {
  const auto xor_kernels = available_xor_kernels();
  ASSERT_FALSE(xor_kernels.empty());
  EXPECT_EQ(xor_kernels.front().tier, KernelTier::kScalar);
  EXPECT_STREQ(xor_kernels.front().name, "scalar");
  const auto gf_kernels = gf::available_gf_kernels();
  ASSERT_FALSE(gf_kernels.empty());
  EXPECT_EQ(gf_kernels.front().tier, KernelTier::kScalar);
  // Ascending tiers, every listed variant CPU-runnable.
  for (std::size_t k = 1; k < xor_kernels.size(); ++k) {
    EXPECT_LT(static_cast<int>(xor_kernels[k - 1].tier),
              static_cast<int>(xor_kernels[k].tier));
    EXPECT_TRUE(cpu_supports(xor_kernels[k].tier));
  }
}

TEST(KernelDispatch, SelectedTierIsSupportedAndNamed) {
  const KernelTier tier = selected_kernel_tier();
  EXPECT_TRUE(cpu_supports(tier));
  EXPECT_STREQ(selected_kernel_name(), to_string(tier));
  // The AEC_KERNEL CI legs pin the tier; assert the pin took.
  if (const char* want = std::getenv("AEC_KERNEL")) {
    if (cpu_supports(parse_kernel_override(want, tier))) {
      EXPECT_STREQ(selected_kernel_name(), want);
    }
  }
}

TEST(KernelDispatch, OverrideParsing) {
  const KernelTier fb = KernelTier::kScalar;
  EXPECT_EQ(parse_kernel_override(nullptr, fb), fb);
  EXPECT_EQ(parse_kernel_override("", fb), fb);
  EXPECT_EQ(parse_kernel_override("scalar", KernelTier::kAvx2),
            KernelTier::kScalar);
  EXPECT_EQ(parse_kernel_override("bogus", fb), fb);  // warns, keeps
  if (cpu_supports(KernelTier::kSse2)) {
    EXPECT_EQ(parse_kernel_override("sse2", fb), KernelTier::kSse2);
  }
  if (cpu_supports(KernelTier::kAvx2)) {
    EXPECT_EQ(parse_kernel_override("avx2", fb), KernelTier::kAvx2);
  }
}

// Sizes chosen to straddle every kernel's internal boundaries: byte
// tails, one-vector, the unrolled main loops (64/128 B XOR, 64 B GF).
std::vector<std::size_t> awkward_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 257; ++n) sizes.push_back(n);
  for (std::size_t n : {511, 512, 513, 1000, 4096, 4097}) sizes.push_back(n);
  return sizes;
}

// The three-operand kernel, dst = a ^ b: every variant against the
// scalar reference (itself checked byte by byte), with dst, a and b at
// independent unaligned offsets, and with dst equal to a or to b.
TEST(Xor3KernelConformance, VariantsMatchScalarReference) {
  const auto kernels = available_xor_kernels();
  Rng rng(20);
  for (const std::size_t n : awkward_sizes()) {
    const Bytes a_buf = rng.random_block(n + 8);
    const Bytes b_buf = rng.random_block(n + 8);
    const Bytes dst_buf = rng.random_block(n + 8);
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{7}}) {
      const std::size_t a_off = (off + 2) % 8;
      const std::size_t b_off = (off + 5) % 8;
      Bytes expected(dst_buf);
      kernels.front().xor3(expected.data() + off, a_buf.data() + a_off,
                           b_buf.data() + b_off, n);
      for (std::size_t i = 0; i < n + 8; ++i) {
        const bool inside = i >= off && i < off + n;
        const std::uint8_t want =
            inside ? static_cast<std::uint8_t>(a_buf[i - off + a_off] ^
                                               b_buf[i - off + b_off])
                   : dst_buf[i];
        ASSERT_EQ(expected[i], want) << "scalar n=" << n << " i=" << i;
      }
      for (std::size_t k = 1; k < kernels.size(); ++k) {
        Bytes got(dst_buf);
        kernels[k].xor3(got.data() + off, a_buf.data() + a_off,
                        b_buf.data() + b_off, n);
        ASSERT_EQ(got, expected)
            << kernels[k].name << " n=" << n << " offset=" << off;
      }
    }
  }
}

TEST(Xor3KernelConformance, DstMayBeEitherSource) {
  Rng rng(21);
  for (const auto& kernel : available_xor_kernels()) {
    for (const std::size_t n : awkward_sizes()) {
      const Bytes a = rng.random_block(n);
      const Bytes b = rng.random_block(n);
      Bytes want(n);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
      Bytes x = a;  // dst == a
      kernel.xor3(x.data(), x.data(), b.data(), n);
      ASSERT_EQ(x, want) << kernel.name << " dst==a n=" << n;
      Bytes y = b;  // dst == b
      kernel.xor3(y.data(), a.data(), y.data(), n);
      ASSERT_EQ(y, want) << kernel.name << " dst==b n=" << n;
      Bytes z = a;  // dst == a == b: x ^ x = 0
      kernel.xor3(z.data(), z.data(), z.data(), n);
      ASSERT_EQ(z, Bytes(n, 0)) << kernel.name << " dst==a==b n=" << n;
    }
  }
}

TEST(Xor3KernelConformance, DispatchedEntryPointsMatchTheReference) {
  // xor3 and xor_of run whichever tier dispatch picked (the
  // AEC_KERNEL CI legs pin each one).
  const XorKernel reference = available_xor_kernels().front();
  Rng rng(22);
  for (const std::size_t n : awkward_sizes()) {
    const Bytes a = rng.random_block(n);
    const Bytes b = rng.random_block(n);
    Bytes want(n);
    reference.xor3(want.data(), a.data(), b.data(), n);
    Bytes got(n, 0xEE);
    xor3(got, a, b);
    ASSERT_EQ(got, want) << "xor3 n=" << n;
    ASSERT_EQ(xor_of(a, b), want) << "xor_of n=" << n;
  }
  Bytes short_dst(3);
  Bytes dst(4);
  EXPECT_THROW(xor3(short_dst, Bytes(4), Bytes(4)), CheckError);
  EXPECT_THROW(xor3(dst, Bytes(4), Bytes(3)), CheckError);
}

TEST(GfKernelConformance, VariantsMatchScalarReference) {
  const auto kernels = gf::available_gf_kernels();
  Rng rng(19);
  const std::vector<gf::Elem> coeffs = {0, 1, 2, 3, 29, 77, 128, 254, 255};
  for (const std::size_t n :
       {std::size_t{0},  std::size_t{1},   std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{31},  std::size_t{32}, std::size_t{63},
        std::size_t{64}, std::size_t{257}, std::size_t{4096}}) {
    const Bytes src_buf = rng.random_block(n + 8);
    const Bytes dst_buf = rng.random_block(n + 8);
    for (const gf::Elem coeff : coeffs) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
        Bytes mul_want(dst_buf), axpy_want(dst_buf);
        kernels.front().mul_slice(mul_want.data() + offset,
                                  src_buf.data() + offset, n, coeff);
        kernels.front().axpy_slice(axpy_want.data() + offset,
                                   src_buf.data() + offset, n, coeff);
        for (std::size_t k = 1; k < kernels.size(); ++k) {
          Bytes mul_got(dst_buf), axpy_got(dst_buf);
          kernels[k].mul_slice(mul_got.data() + offset,
                               src_buf.data() + offset, n, coeff);
          kernels[k].axpy_slice(axpy_got.data() + offset,
                                src_buf.data() + offset, n, coeff);
          ASSERT_EQ(mul_got, mul_want)
              << kernels[k].name << " mul n=" << n << " c=" << int(coeff)
              << " offset=" << offset;
          ASSERT_EQ(axpy_got, axpy_want)
              << kernels[k].name << " axpy n=" << n << " c=" << int(coeff)
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST(GfKernelConformance, ScalarReferenceMatchesElementMul) {
  // Anchor the whole chain to the single-element field op.
  Rng rng(20);
  const Bytes src = rng.random_block(300);
  for (const gf::Elem coeff : {gf::Elem{0}, gf::Elem{1}, gf::Elem{2},
                               gf::Elem{77}, gf::Elem{255}}) {
    Bytes dst = rng.random_block(300);
    Bytes expected(dst);
    for (std::size_t i = 0; i < src.size(); ++i)
      expected[i] = gf::mul(coeff, src[i]);
    gf::available_gf_kernels().front().mul_slice(dst.data(), src.data(),
                                                 dst.size(), coeff);
    EXPECT_EQ(dst, expected) << int(coeff);
  }
}

TEST(GfKernelConformance, AliasedMulSliceInPlace) {
  // dst == src full aliasing: in-place scaling, the RS repair pattern.
  Rng rng(21);
  for (const auto& kernel : gf::available_gf_kernels()) {
    for (const std::size_t n : {1, 16, 33, 257}) {
      const Bytes orig = rng.random_block(static_cast<std::size_t>(n));
      Bytes expected(orig.size());
      for (std::size_t i = 0; i < orig.size(); ++i)
        expected[i] = gf::mul(93, orig[i]);
      Bytes buf(orig);
      kernel.mul_slice(buf.data(), buf.data(), buf.size(), 93);
      EXPECT_EQ(buf, expected) << kernel.name << " n=" << n;
      // axpy aliased: dst ^= c·dst = (c ^ 1)·dst.
      Bytes buf2(orig);
      kernel.axpy_slice(buf2.data(), buf2.data(), buf2.size(), 93);
      for (std::size_t i = 0; i < orig.size(); ++i)
        EXPECT_EQ(buf2[i], gf::mul(gf::add(93, 1), orig[i]))
            << kernel.name << " n=" << n << " i=" << i;
    }
  }
}

TEST(GfKernelConformance, DispatchedEntryPointsMatchScalar) {
  // Whatever tier AEC_KERNEL/cpuid picked, the public mul_slice and
  // axpy_slice must agree with the scalar variant (this is the leg the
  // CI override matrix exercises per tier).
  Rng rng(22);
  const auto scalar = gf::available_gf_kernels().front();
  const Bytes src = rng.random_block(1029);
  for (const gf::Elem coeff : {gf::Elem{0}, gf::Elem{1}, gf::Elem{87}}) {
    Bytes want = rng.random_block(1029);
    Bytes got(want);
    scalar.mul_slice(want.data(), src.data(), want.size(), coeff);
    gf::mul_slice(got.data(), src.data(), got.size(), coeff);
    EXPECT_EQ(got, want) << "mul c=" << int(coeff);
  }
  Bytes want = rng.random_block(1029);
  Bytes got(want);
  scalar.axpy_slice(want.data(), src.data(), want.size(), 201);
  gf::axpy_slice(got.data(), src.data(), got.size(), 201);
  EXPECT_EQ(got, want);

  // xor_into is the dispatched xor3 with dst as its first source.
  Bytes xw = rng.random_block(1029);
  Bytes xg(xw);
  available_xor_kernels().front().xor3(xw.data(), xw.data(), src.data(),
                                       xw.size());
  xor_into(xg, src);
  EXPECT_EQ(xg, xw);
}

}  // namespace
}  // namespace aec
