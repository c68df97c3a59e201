// Word-wide XOR primitives — the only arithmetic the AE codec needs
// (paper: "the encoder and decoder are lightweight—essentially based on
// exclusive-or operations").
//
// Three kernel variants (scalar / SSE2 / AVX2) are compiled into every
// binary via per-function target attributes and picked once per process
// by common/cpu.h's runtime dispatch (AEC_KERNEL overridable). All
// variants accept unaligned buffers, any size, and full aliasing of dst
// with a source (dst == src; for the three-operand kernel dst == a or
// dst == b); partial overlap is unsupported.
//
// Two shapes: xor_into (dst ^= src) folds a source into a buffer, and
// xor3 (dst = a ^ b) writes a fresh buffer in one pass, reading both
// sources once and writing dst once — how the encoder writes each parity
// (head ^ d) and the repairer each repair output into a new Block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/block.h"
#include "common/bytes.h"
#include "common/cpu.h"

namespace aec {

/// dst ^= src, element-wise. Both spans must have the same size.
void xor_into(std::span<std::uint8_t> dst, BytesView src);

/// dst = a ^ b, element-wise. All three spans must have the same size.
void xor3(std::span<std::uint8_t> dst, BytesView a, BytesView b);

/// a ^ b as a fresh Block, written once by xor3. Sizes must match.
Block xor_of(BytesView a, BytesView b);

/// True iff every byte of `b` is zero.
bool all_zero(BytesView b) noexcept;

/// One XOR kernel variant, exposed so the conformance suite and
/// bench_codec_micro can drive every CPU-supported variant directly
/// (production code always goes through the dispatched entry points
/// above).
struct XorKernel {
  KernelTier tier;
  const char* name;
  void (*xor_into)(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n);
  void (*xor3)(std::uint8_t* dst, const std::uint8_t* a,
               const std::uint8_t* b, std::size_t n);
  bool (*all_zero)(const std::uint8_t* p, std::size_t n);
};

/// The variants this CPU can execute, ascending by tier; [0] is always
/// the scalar reference.
std::vector<XorKernel> available_xor_kernels();

}  // namespace aec
