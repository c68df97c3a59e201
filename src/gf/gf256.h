// GF(2^8) arithmetic over the AES/Rijndael-compatible polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the field conventionally used by
// storage Reed-Solomon implementations. Single-element ops go through
// log/exp tables built once at static initialization; the buffer ops
// (mul_slice/axpy_slice — the RS encode/decode workhorses) ship scalar,
// SSSE3 and AVX2 variants of the ISA-L-style PSHUFB split-table kernel
// (per-coefficient 16-entry low/high-nibble product tables, one shuffle
// each per 16 source bytes) behind common/cpu.h's runtime dispatch.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/cpu.h"

namespace aec::gf {

/// Field element.
using Elem = std::uint8_t;

/// a + b and a − b coincide in characteristic 2.
constexpr Elem add(Elem a, Elem b) noexcept {
  return static_cast<Elem>(a ^ b);
}
constexpr Elem sub(Elem a, Elem b) noexcept { return add(a, b); }

/// a · b via log/exp tables.
Elem mul(Elem a, Elem b) noexcept;

/// a / b. Throws CheckError on division by zero.
Elem div(Elem a, Elem b);

/// Multiplicative inverse. Throws CheckError for 0.
Elem inv(Elem a);

/// a^n (n ≥ 0).
Elem pow(Elem a, std::uint32_t n) noexcept;

/// exp table access: generator^k for k in [0, 255).
Elem exp_table(std::uint8_t k) noexcept;

/// log table access: log_generator(a) for a ≠ 0.
std::uint8_t log_table(Elem a);

/// dst[k] = coeff · src[k] (overwrite). SIMD-dispatched; dst == src full
/// aliasing is fine, partial overlap is not.
void mul_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               Elem coeff) noexcept;

/// dst[k] ^= coeff · src[k] (GF axpy / multiply-accumulate — the
/// workhorse of RS encoding/decoding). SIMD-dispatched; same aliasing
/// rules as mul_slice.
void axpy_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                Elem coeff) noexcept;

/// One GF buffer-kernel variant, exposed for the conformance suite and
/// bench_codec_micro (production code uses the dispatched entry points).
/// The kSse2 tier's variant actually requires SSSE3 (PSHUFB); it is
/// listed only when the CPU has it.
struct GfKernel {
  KernelTier tier;
  const char* name;
  void (*mul_slice)(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n, Elem coeff);
  void (*axpy_slice)(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n, Elem coeff);
};

/// The variants this CPU can execute, ascending by tier; [0] is always
/// the scalar reference.
std::vector<GfKernel> available_gf_kernels();

}  // namespace aec::gf
