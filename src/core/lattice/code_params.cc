#include "core/lattice/code_params.h"

#include <sstream>

#include "common/check.h"

namespace aec {

const char* to_string(StrandClass cls) noexcept {
  switch (cls) {
    case StrandClass::kHorizontal:
      return "H";
    case StrandClass::kRightHanded:
      return "RH";
    case StrandClass::kLeftHanded:
      return "LH";
  }
  return "?";
}

const char* to_string(NodeClass cls) noexcept {
  switch (cls) {
    case NodeClass::kTop:
      return "top";
    case NodeClass::kCentral:
      return "central";
    case NodeClass::kBottom:
      return "bottom";
  }
  return "?";
}

CodeParams::CodeParams(std::uint32_t alpha, std::uint32_t s, std::uint32_t p)
    : alpha_(alpha), s_(s), p_(p) {
  AEC_CHECK_MSG(alpha >= 1 && alpha <= 3,
                "AE codes: this implementation covers alpha in [1,3], got "
                    << alpha);
  if (alpha == 1) {
    AEC_CHECK_MSG(s == 1 && p == 0,
                  "AE(1) is a single chain: requires s=1, p=0, got s=" << s
                      << " p=" << p);
  } else {
    AEC_CHECK_MSG(s >= 1, "AE codes require s >= 1");
    AEC_CHECK_MSG(p >= s, "AE codes with alpha>1 require p >= s (p < s "
                          "deforms the lattice), got s="
                              << s << " p=" << p);
    AEC_CHECK_MSG(p <= kMaxStrands, "AE codes allow s and p up to "
                                        << kMaxStrands << ", got s=" << s
                                        << " p=" << p);
  }
  classes_.push_back(StrandClass::kHorizontal);
  if (alpha >= 2) classes_.push_back(StrandClass::kRightHanded);
  if (alpha >= 3) classes_.push_back(StrandClass::kLeftHanded);
}

std::uint32_t CodeParams::strands_of(StrandClass cls) const noexcept {
  return cls == StrandClass::kHorizontal ? s_ : p_;
}

std::uint32_t CodeParams::total_strands() const noexcept {
  return s_ + (alpha_ - 1) * p_;
}

double CodeParams::code_rate() const noexcept {
  return 1.0 / (static_cast<double>(alpha_) + 1.0);
}

double CodeParams::parity_only_rate() const noexcept {
  return 1.0 / static_cast<double>(alpha_);
}

double CodeParams::storage_overhead_percent() const noexcept {
  return static_cast<double>(alpha_) * 100.0;
}

std::string CodeParams::name() const {
  std::ostringstream os;
  if (alpha_ == 1) {
    os << "AE(1,-,-)";
  } else {
    os << "AE(" << alpha_ << "," << s_ << "," << p_ << ")";
  }
  return os.str();
}

}  // namespace aec
