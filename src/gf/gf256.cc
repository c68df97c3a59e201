#include "gf/gf256.h"

#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AEC_X86 1
#endif

namespace aec::gf {

namespace {

constexpr std::uint32_t kPoly = 0x11D;  // x^8+x^4+x^3+x^2+1
constexpr Elem kGenerator = 0x02;

struct Tables {
  std::array<Elem, 512> exp{};  // doubled to skip a mod-255 per multiply
  std::array<std::uint8_t, 256> log{};
  // Per-coefficient split tables for the PSHUFB kernels (ISA-L's
  // gf_vect_mul layout): nib_lo[c][x] = c·x and nib_hi[c][x] = c·(x<<4)
  // for x in [0,16), so c·b = nib_lo[c][b & 15] ^ nib_hi[c][b >> 4].
  // 8 KiB total, 16-byte rows aligned for _mm_load_si128.
  alignas(16) std::uint8_t nib_lo[256][16];
  alignas(16) std::uint8_t nib_hi[256][16];

  Tables() {
    std::uint32_t x = 1;
    for (std::uint32_t k = 0; k < 255; ++k) {
      exp[k] = static_cast<Elem>(x);
      log[x] = static_cast<std::uint8_t>(k);
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    for (std::uint32_t k = 255; k < 512; ++k) exp[k] = exp[k - 255];
    log[0] = 0;  // never read; mul/div guard zero operands

    const auto product = [&](std::uint32_t a, std::uint32_t b) -> Elem {
      if (a == 0 || b == 0) return 0;
      return exp[static_cast<std::size_t>(log[a]) + log[b]];
    };
    for (std::uint32_t c = 0; c < 256; ++c) {
      for (std::uint32_t v = 0; v < 16; ++v) {
        nib_lo[c][v] = product(c, v);
        nib_hi[c][v] = product(c, v << 4);
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

// --- buffer kernels ---------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#define AEC_NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define AEC_NO_VECTORIZE
#endif

// Scalar reference: one table build amortized over the whole buffer,
// then a single lookup per byte. Kept vectorization-free so "scalar"
// measures what it says (see xor_engine.cc), and started on a 64-byte
// boundary, so its rate does not move with where the linker places it
// (gf_mul scalar 16K read 1412 MB/s at an address ≡ 48 mod 64 and 2735
// MB/s at ≡ 16, 4-core host).
AEC_NO_VECTORIZE __attribute__((aligned(64)))
void gf_axpy_scalar(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n, Elem coeff) {
  const Tables& t = tables();
  std::array<std::uint8_t, 256> row;
  row[0] = 0;
  if (coeff == 0) {
    row.fill(0);
  } else {
    const std::uint32_t log_c = t.log[coeff];
    for (std::uint32_t v = 1; v < 256; ++v)
      row[v] = t.exp[log_c + t.log[v]];
  }
  for (std::size_t k = 0; k < n; ++k) dst[k] ^= row[src[k]];
}

AEC_NO_VECTORIZE __attribute__((aligned(64)))
void gf_mul_scalar(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n, Elem coeff) {
  const Tables& t = tables();
  std::array<std::uint8_t, 256> row;
  row[0] = 0;
  if (coeff == 0) {
    row.fill(0);
  } else {
    const std::uint32_t log_c = t.log[coeff];
    for (std::uint32_t v = 1; v < 256; ++v)
      row[v] = t.exp[log_c + t.log[v]];
  }
  for (std::size_t k = 0; k < n; ++k) dst[k] = row[src[k]];
}

AEC_NO_VECTORIZE
void gf_tail_scalar(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n, Elem coeff, bool accumulate) {
  // Sub-vector tails resolve through the nibble tables directly — for
  // < 16 bytes a 256-entry row build would dominate.
  const Tables& t = tables();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint8_t p = static_cast<std::uint8_t>(
        t.nib_lo[coeff][src[k] & 0x0F] ^ t.nib_hi[coeff][src[k] >> 4]);
    dst[k] = accumulate ? dst[k] ^ p : p;
  }
}

#ifdef AEC_X86

// SSSE3 split-table kernel: c·v for 16 bytes = PSHUFB(lo_table, v & 15)
// ^ PSHUFB(hi_table, v >> 4).
__attribute__((target("ssse3"))) void gf_axpy_ssse3(std::uint8_t* dst,
                                                    const std::uint8_t* src,
                                                    std::size_t n,
                                                    Elem coeff) {
  const Tables& t = tables();
  const __m128i tlo =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[coeff]));
  const __m128i thi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[coeff]));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = _mm_and_si128(v, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), mask);
    const __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                       _mm_shuffle_epi8(thi, hi));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, prod));
  }
  gf_tail_scalar(dst + i, src + i, n - i, coeff, /*accumulate=*/true);
}

__attribute__((target("ssse3"))) void gf_mul_ssse3(std::uint8_t* dst,
                                                   const std::uint8_t* src,
                                                   std::size_t n,
                                                   Elem coeff) {
  const Tables& t = tables();
  const __m128i tlo =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[coeff]));
  const __m128i thi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[coeff]));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = _mm_and_si128(v, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), mask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                   _mm_shuffle_epi8(thi, hi)));
  }
  gf_tail_scalar(dst + i, src + i, n - i, coeff, /*accumulate=*/false);
}

__attribute__((target("avx2"))) void gf_axpy_avx2(std::uint8_t* dst,
                                                  const std::uint8_t* src,
                                                  std::size_t n,
                                                  Elem coeff) {
  const Tables& t = tables();
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[coeff])));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[coeff])));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i p0 = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(v0, mask)),
        _mm256_shuffle_epi8(
            thi, _mm256_and_si256(_mm256_srli_epi16(v0, 4), mask)));
    const __m256i p1 = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(v1, mask)),
        _mm256_shuffle_epi8(
            thi, _mm256_and_si256(_mm256_srli_epi16(v1, 4), mask)));
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, p0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, p1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(v, mask)),
        _mm256_shuffle_epi8(
            thi, _mm256_and_si256(_mm256_srli_epi16(v, 4), mask)));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  gf_tail_scalar(dst + i, src + i, n - i, coeff, /*accumulate=*/true);
}

__attribute__((target("avx2"))) void gf_mul_avx2(std::uint8_t* dst,
                                                 const std::uint8_t* src,
                                                 std::size_t n,
                                                 Elem coeff) {
  const Tables& t = tables();
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[coeff])));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[coeff])));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(v, mask)),
        _mm256_shuffle_epi8(
            thi, _mm256_and_si256(_mm256_srli_epi16(v, 4), mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  gf_tail_scalar(dst + i, src + i, n - i, coeff, /*accumulate=*/false);
}

#endif  // AEC_X86

const GfKernel& dispatched_gf_kernel() {
  static const GfKernel kernel = [] {
    // The kSse2 tier needs SSSE3 for PSHUFB; without it that tier (and
    // an AEC_KERNEL=sse2 override) degrades to scalar for GF only.
    const KernelTier tier = selected_kernel_tier();
    const std::vector<GfKernel> kernels = available_gf_kernels();
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it)
      if (it->tier <= tier) return *it;
    return kernels.front();
  }();
  return kernel;
}

}  // namespace

Elem mul(Elem a, Elem b) noexcept {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
}

Elem div(Elem a, Elem b) {
  AEC_CHECK_MSG(b != 0, "GF(256): division by zero");
  if (a == 0) return 0;
  const Tables& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + 255 - t.log[b]];
}

Elem inv(Elem a) {
  AEC_CHECK_MSG(a != 0, "GF(256): zero has no inverse");
  const Tables& t = tables();
  return t.exp[255 - static_cast<std::size_t>(t.log[a])];
}

Elem pow(Elem a, std::uint32_t n) noexcept {
  if (n == 0) return 1;
  if (a == 0) return 0;
  const Tables& t = tables();
  const std::uint32_t e =
      (static_cast<std::uint32_t>(t.log[a]) * n) % 255;
  return t.exp[e];
}

Elem exp_table(std::uint8_t k) noexcept { return tables().exp[k]; }

std::uint8_t log_table(Elem a) {
  AEC_CHECK_MSG(a != 0, "GF(256): log of zero");
  return tables().log[a];
}

std::vector<GfKernel> available_gf_kernels() {
  std::vector<GfKernel> kernels{
      {KernelTier::kScalar, "scalar", &gf_mul_scalar, &gf_axpy_scalar}};
#ifdef AEC_X86
  if (cpu_has_ssse3())
    kernels.push_back(
        {KernelTier::kSse2, "ssse3", &gf_mul_ssse3, &gf_axpy_ssse3});
  if (cpu_supports(KernelTier::kAvx2))
    kernels.push_back(
        {KernelTier::kAvx2, "avx2", &gf_mul_avx2, &gf_axpy_avx2});
#endif
  return kernels;
}

void mul_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               Elem coeff) noexcept {
  if (coeff == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (coeff == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  dispatched_gf_kernel().mul_slice(dst, src, n, coeff);
}

void axpy_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                Elem coeff) noexcept {
  if (coeff == 0) return;
  dispatched_gf_kernel().axpy_slice(dst, src, n, coeff);
}

}  // namespace aec::gf
