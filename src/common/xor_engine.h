// Word-wide XOR primitives — the only arithmetic the AE codec needs
// (paper: "the encoder and decoder are lightweight—essentially based on
// exclusive-or operations").
//
// One kernel, xor3 (dst = a ^ b), in three variants (scalar / SSE2 /
// AVX2) compiled into every binary via per-function target attributes
// and picked once per process by common/cpu.h's runtime dispatch
// (AEC_KERNEL overridable). Every variant accepts unaligned buffers, any
// size, and dst equal to a, to b or to both; partial overlap is
// unsupported. It reads both sources once and writes dst once — how the
// encoder writes each parity (head ^ d) and the repairer each repair
// output into a new Block. xor_into (dst ^= src) is that kernel with dst
// as its first source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/block.h"
#include "common/bytes.h"
#include "common/cpu.h"

namespace aec {

/// dst ^= src, element-wise: xor3(dst, dst, src). Both spans must have
/// the same size.
void xor_into(std::span<std::uint8_t> dst, BytesView src);

/// dst = a ^ b, element-wise. All three spans must have the same size.
void xor3(std::span<std::uint8_t> dst, BytesView a, BytesView b);

/// a ^ b as a fresh Block, written once by xor3. Sizes must match.
Block xor_of(BytesView a, BytesView b);

/// One XOR kernel variant, exposed so the conformance suite and
/// bench_codec_micro can drive every CPU-supported variant directly
/// (production code always goes through the dispatched entry points
/// above).
struct XorKernel {
  KernelTier tier;
  const char* name;
  void (*xor3)(std::uint8_t* dst, const std::uint8_t* a,
               const std::uint8_t* b, std::size_t n);
};

/// The variants this CPU can execute, ascending by tier; [0] is always
/// the scalar reference.
std::vector<XorKernel> available_xor_kernels();

}  // namespace aec
