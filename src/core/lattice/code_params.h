// AE(α, s, p) code parameters (paper §III-B "Code Parameters").
//
//   α — parities created per data block = number of strands a node joins.
//       Determines storage overhead (α·100 %) and code rate 1/(α+1).
//   s — number of horizontal strands (lattice rows).
//   p — number of helical strands per helical class (lattice pitch).
//
// Validity: α = 1 forces s = 1, p = 0 (one single chain). For α ≥ 2 the
// lattice needs p ≥ s ("an invalid setting, i.e. p < s, causes a deformed
// lattice"). This implementation covers the paper's focus α ∈ [1,3], with
// s and p at most kMaxStrands.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace aec {

/// Strand classes (paper §III-B "Strands"). A node participates in the
/// first α classes: H for α=1; H+RH for α=2; H+RH+LH for α=3.
enum class StrandClass : std::uint8_t {
  kHorizontal = 0,
  kRightHanded = 1,
  kLeftHanded = 2,
};

/// Short name: "H", "RH" or "LH".
const char* to_string(StrandClass cls) noexcept;

/// Node categories that select the encoder rule row (paper Tables I/II).
/// With s = 1 every node is simultaneously top and bottom; the lattice
/// code handles that case explicitly.
enum class NodeClass : std::uint8_t {
  kTop = 0,
  kCentral = 1,
  kBottom = 2,
};

const char* to_string(NodeClass cls) noexcept;

/// Validated AE(α, s, p) parameter triple.
class CodeParams {
 public:
  /// Largest s and p, the bound RS puts on k + m. An encoder keeps one
  /// strand head per strand, so parameters read from a spec or a
  /// manifest must not size that state past it.
  static constexpr std::uint32_t kMaxStrands = 256;

  /// Throws CheckError on invalid settings (see file comment).
  CodeParams(std::uint32_t alpha, std::uint32_t s, std::uint32_t p);

  /// Single entanglement AE(1,-,-): one horizontal chain.
  static CodeParams single() { return CodeParams(1, 1, 0); }

  std::uint32_t alpha() const noexcept { return alpha_; }
  std::uint32_t s() const noexcept { return s_; }
  std::uint32_t p() const noexcept { return p_; }

  /// Strand classes a node participates in (size == alpha).
  const std::vector<StrandClass>& classes() const noexcept {
    return classes_;
  }

  /// Number of strand instances of one class: s for H, p for RH/LH.
  std::uint32_t strands_of(StrandClass cls) const noexcept;

  /// Total strand instances: s + (α−1)·p  (paper §III-B).
  std::uint32_t total_strands() const noexcept;

  /// Code rate 1/(α+1) when data and parities are stored.
  double code_rate() const noexcept;

  /// Code rate 1/α for systems that only store parities (paper option).
  double parity_only_rate() const noexcept;

  /// Additional storage as a percentage of the source: α·100 %.
  double storage_overhead_percent() const noexcept;

  /// "AE(3,2,5)" or "AE(1,-,-)".
  std::string name() const;

  friend bool operator==(const CodeParams&, const CodeParams&) = default;

 private:
  std::uint32_t alpha_;
  std::uint32_t s_;
  std::uint32_t p_;
  std::vector<StrandClass> classes_;
};

}  // namespace aec
