// Systematic Reed-Solomon RS(k, m) over GF(2^8) — the paper's baseline
// ("RS codes conceptualize the idea of an ideal [MDS] code … used as a
// baseline", §V).
//
// Construction: generator [I_k ; C] with C the m×k Cauchy block, so any k
// of the k+m blocks reconstruct the stripe (MDS). Decoding inverts the
// k×k submatrix of the generator selected by the surviving blocks —
// which is exactly why a single-failure repair still reads k blocks, the
// locality weakness AE codes attack.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "gf/matrix.h"

namespace aec::rs {

class ReedSolomon {
 public:
  /// k data blocks, m parity blocks per stripe. Requires k ≥ 1, m ≥ 1,
  /// k + m ≤ 256.
  ReedSolomon(std::uint32_t k, std::uint32_t m);

  std::uint32_t k() const noexcept { return k_; }
  std::uint32_t m() const noexcept { return m_; }
  std::uint32_t stripe_blocks() const noexcept { return k_ + m_; }

  /// "RS(10,4)".
  std::string name() const;

  /// Encodes one stripe: returns the m parity blocks for k equally-sized
  /// data blocks.
  std::vector<Bytes> encode(const std::vector<Bytes>& data) const;

  /// Reconstructs the k data blocks from any ≥ k available blocks.
  /// `stripe[i]` holds block i (data for i < k, parity for i ≥ k) or
  /// nullopt if erased. Returns nullopt when fewer than k blocks remain.
  std::optional<std::vector<Bytes>> decode(
      const std::vector<std::optional<Bytes>>& stripe) const;

 private:
  std::uint32_t k_;
  std::uint32_t m_;
  gf::Matrix parity_rows_;  // m×k Cauchy block
};

}  // namespace aec::rs
