// Option values and exit statuses shared by the command-line tools
// (aectool, aecc, aecd). A bad option value names the option, prints the
// tool's usage text and exits 2: it never wraps, never escapes as a
// std::stoull/std::stod exception, and never falls back to a default.
#pragma once

#include <cstdint>
#include <string>

namespace aec::cli {

/// The tool's usage printer; it exits 2 (and parse_* exit 2 should it
/// return).
using Usage = void (*)();

/// `text` as an unsigned decimal in [lo, hi]: digits only, so a sign,
/// a space or junk is refused.
std::uint64_t parse_unsigned(const char* key, const std::string& text,
                             std::uint64_t lo, std::uint64_t hi, Usage usage);

/// `text` as a decimal number in [lo, hi], the whole string (no leading
/// space, no trailing junk).
double parse_real(const char* key, const std::string& text, double lo,
                  double hi, Usage usage);

/// Exit status of `aectool scrub` and `aecc scrub`: 1 when a block stayed
/// unrecovered or the integrity scan found an inconsistent parity or a
/// suspect block (corruption, which scrub reports but does not repair),
/// else 0.
int scrub_exit_status(std::uint64_t unrecovered,
                      std::uint64_t inconsistent_parities,
                      std::uint64_t suspect_blocks);

}  // namespace aec::cli
