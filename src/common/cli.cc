#include "common/cli.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <system_error>

namespace aec::cli {

namespace {

/// Whether from_chars consumed the whole of `text` without error.
template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

template <typename T>
[[noreturn]] void reject(const char* key, const std::string& text,
                         const char* want, T lo, T hi, Usage usage) {
  std::ostringstream range;
  range << "[" << lo << ", " << hi << "]";
  std::fprintf(stderr, "error: %s wants %s in %s, got '%s'\n", key, want,
               range.str().c_str(), text.c_str());
  usage();
  std::exit(2);
}

}  // namespace

std::uint64_t parse_unsigned(const char* key, const std::string& text,
                             std::uint64_t lo, std::uint64_t hi,
                             Usage usage) {
  std::uint64_t value = 0;
  if (text.find_first_not_of("0123456789") != std::string::npos ||
      !parse_whole(text, value) || value < lo || value > hi)
    reject(key, text, "a whole number", lo, hi, usage);
  return value;
}

double parse_real(const char* key, const std::string& text, double lo,
                  double hi, Usage usage) {
  double value = 0.0;
  // The negated range test also refuses NaN.
  if (!parse_whole(text, value) || !(value >= lo && value <= hi))
    reject(key, text, "a number", lo, hi, usage);
  return value;
}

}  // namespace aec::cli
