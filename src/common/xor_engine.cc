#include "common/xor_engine.h"

#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AEC_X86 1
#endif

namespace aec {

namespace {

// --- scalar -----------------------------------------------------------------
//
// The reference every SIMD variant is conformance-tested against, and
// what AEC_KERNEL=scalar selects. On x86 vectorization is disabled so
// "scalar" really means no SIMD — otherwise GCC would quietly lower the
// loop to SSE2 and the kernel tiers would measure as noise apart.

#ifdef AEC_X86

#if defined(__GNUC__) && !defined(__clang__)
#define AEC_NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define AEC_NO_VECTORIZE
#endif

AEC_NO_VECTORIZE
void xor3_scalar(std::uint8_t* d, const std::uint8_t* a, const std::uint8_t* b,
                 std::size_t n) {
  // On x86 the scalar kernel is the honest byte-at-a-time reference —
  // the SIMD tiers carry production speed (dispatch never picks scalar
  // unless AEC_KERNEL forces it), and a word-wide "scalar" already sits
  // at the load/store port limit, which would make kernel-tier
  // comparisons meaningless.
  for (std::size_t i = 0; i < n; ++i) d[i] = a[i] ^ b[i];
}

#else

void xor3_scalar(std::uint8_t* d, const std::uint8_t* a, const std::uint8_t* b,
                 std::size_t n) {
  // Non-x86: scalar is the only variant, so keep the word loop (memcpy
  // avoids alignment UB and lowers to plain 64-bit loads/stores) and let
  // the auto-vectorizer do what it wants. Both sources are loaded before
  // dst is stored, so dst may alias either.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    x ^= y;
    std::memcpy(d + i, &x, 8);
  }
  for (; i < n; ++i) d[i] = a[i] ^ b[i];  // byte tail
}

#endif  // AEC_X86

// --- SSE2 / AVX2 ------------------------------------------------------------
//
// Unaligned loads/stores throughout: block payloads live in std::vector
// storage or behind a Block's 8-byte header. Each variant handles its own
// sub-width tail by falling through to the scalar loop.
//
// The kernels usually write a fresh buffer, one no cache holds (a new
// Block on recycled or just-faulted heap memory), so each store would
// wait for its line to be fetched for ownership one after another.
// They prefetch the destination kDstPrefetchBytes ahead of the
// stores, which keeps those fetches in flight together: on a 4-core
// host, xor_of into recycled, uncached 4 KiB blocks ran 1.6–1.8× faster
// with it (AVX2, 1 and 3 threads).

#ifdef AEC_X86

constexpr std::size_t kDstPrefetchBytes = 1024;

/// Prefetches dst's lines in [from, to) that lie inside [0, n).
__attribute__((target("sse2"))) inline void prefetch_dst(
    const std::uint8_t* d, std::size_t from, std::size_t to, std::size_t n) {
  for (std::size_t p = from; p < to && p < n; p += 64)
    _mm_prefetch(reinterpret_cast<const char*>(d + p), _MM_HINT_T0);
}

__attribute__((target("sse2"))) void xor3_sse2(std::uint8_t* d,
                                               const std::uint8_t* a,
                                               const std::uint8_t* b,
                                               std::size_t n) {
  // Each step loads both sources before it stores, so dst may alias
  // either one.
  std::size_t i = 0;
  prefetch_dst(d, 0, kDstPrefetchBytes, n);
  for (; i + 64 <= n; i += 64) {
    prefetch_dst(d, i + kDstPrefetchBytes, i + kDstPrefetchBytes + 64, n);
    const __m128i a0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i));
    const __m128i a1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i + 16));
    const __m128i a2 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i + 32));
    const __m128i a3 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + i + 48));
    const __m128i b0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i));
    const __m128i b1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i + 16));
    const __m128i b2 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i + 32));
    const __m128i b3 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + i + 48));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i),
                     _mm_xor_si128(a0, b0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 16),
                     _mm_xor_si128(a1, b1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 32),
                     _mm_xor_si128(a2, b2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 48),
                     _mm_xor_si128(a3, b3));
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), _mm_xor_si128(x, y));
  }
  xor3_scalar(d + i, a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void xor3_avx2(std::uint8_t* d,
                                               const std::uint8_t* a,
                                               const std::uint8_t* b,
                                               std::size_t n) {
  std::size_t i = 0;
  prefetch_dst(d, 0, kDstPrefetchBytes, n);
  for (; i + 128 <= n; i += 128) {
    prefetch_dst(d, i + kDstPrefetchBytes, i + kDstPrefetchBytes + 128, n);
    const __m256i a0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i a1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i + 32));
    const __m256i a2 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i + 64));
    const __m256i a3 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i + 96));
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i + 32));
    const __m256i b2 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i + 64));
    const __m256i b3 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i + 96));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                        _mm256_xor_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i + 32),
                        _mm256_xor_si256(a1, b1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i + 64),
                        _mm256_xor_si256(a2, b2));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i + 96),
                        _mm256_xor_si256(a3, b3));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                        _mm256_xor_si256(x, y));
  }
  xor3_scalar(d + i, a + i, b + i, n - i);
}

#endif  // AEC_X86

const XorKernel& dispatched_kernel() {
  static const XorKernel kernel = [] {
    const KernelTier tier = selected_kernel_tier();
    for (const XorKernel& k : available_xor_kernels())
      if (k.tier == tier) return k;
    return XorKernel{KernelTier::kScalar, "scalar", &xor3_scalar};
  }();
  return kernel;
}

}  // namespace

std::vector<XorKernel> available_xor_kernels() {
  std::vector<XorKernel> kernels{
      {KernelTier::kScalar, "scalar", &xor3_scalar}};
#ifdef AEC_X86
  if (cpu_supports(KernelTier::kSse2))
    kernels.push_back({KernelTier::kSse2, "sse2", &xor3_sse2});
  if (cpu_supports(KernelTier::kAvx2))
    kernels.push_back({KernelTier::kAvx2, "avx2", &xor3_avx2});
#endif
  return kernels;
}

void xor_into(std::span<std::uint8_t> dst, BytesView src) {
  AEC_CHECK_MSG(dst.size() == src.size(),
                "xor_into: size mismatch " << dst.size() << " vs "
                                           << src.size());
  dispatched_kernel().xor3(dst.data(), dst.data(), src.data(), dst.size());
}

void xor3(std::span<std::uint8_t> dst, BytesView a, BytesView b) {
  AEC_CHECK_MSG(dst.size() == a.size() && a.size() == b.size(),
                "xor3: size mismatch " << dst.size() << " vs " << a.size()
                                       << " vs " << b.size());
  dispatched_kernel().xor3(dst.data(), a.data(), b.data(), dst.size());
}

Block xor_of(BytesView a, BytesView b) {
  AEC_CHECK_MSG(a.size() == b.size(), "xor_of: size mismatch "
                                          << a.size() << " vs " << b.size());
  return Block::build(a.size(),
                      [&](std::span<std::uint8_t> out) { xor3(out, a, b); });
}

}  // namespace aec
