// Command lines, option values and exit statuses shared by the
// command-line tools (aectool, aecc, aecd). A bad option value names the
// option, prints the tool's usage text and exits 2: it never wraps,
// never escapes as a std::stoull/std::stod exception, and never falls
// back to a default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace aec::cli {

/// The tool's usage printer; it exits 2 (and the functions here exit 2
/// should it return).
using Usage = void (*)();

/// A `tool <command> [options] [positionals]` command line.
struct Args {
  std::string command;
  /// Option name ("--out" for -o) → value; "1" for a flag.
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

/// What one command accepts: its options and at most how many
/// positional arguments.
struct CommandSpec {
  std::set<std::string> options;
  std::size_t max_positionals = 0;
};

/// Every command's options and positional limit, by command word.
using Commands = std::map<std::string, CommandSpec>;

/// Reads argv[1] as the command and the rest as options, each allowed
/// for that command, and positional arguments, at most as many as the
/// command takes. `-o` is read as `--out`; an option in `flags` takes no
/// value. An unknown command or option, and a positional argument past
/// the command's limit, print an error line and the usage text, and exit
/// 2; so do a missing command and an option without its value, with the
/// usage text alone.
Args parse(int argc, const char* const* argv, const Commands& commands,
           const std::set<std::string>& flags, Usage usage);

/// The value of option `key`. Absent, it prints "error: '<command>'
/// requires <key>" and the usage text, and exits 2.
const std::string& require(const Args& args, const char* key, Usage usage);

/// `text` as an unsigned decimal in [lo, hi]: digits only, so a sign,
/// a space or junk is refused.
std::uint64_t parse_unsigned(const char* key, const std::string& text,
                             std::uint64_t lo, std::uint64_t hi, Usage usage);

/// `text` as a decimal number in [lo, hi], the whole string (no leading
/// space, no trailing junk).
double parse_real(const char* key, const std::string& text, double lo,
                  double hi, Usage usage);

/// Writes all of `chunk` to `stream`, which `name` names ("stdout"); a
/// short write is a CheckError "cannot write <name>". A buffered stream
/// may fail only when it is flushed, so check its fflush as well.
void write_chunk(std::FILE* stream, const char* name, BytesView chunk);

/// Exit status of `aectool scrub` and `aecc scrub`: 1 when a block stayed
/// unrecovered or the integrity scan found an inconsistent parity or a
/// suspect block (corruption, which scrub reports but does not repair),
/// else 0.
int scrub_exit_status(std::uint64_t unrecovered,
                      std::uint64_t inconsistent_parities,
                      std::uint64_t suspect_blocks);

}  // namespace aec::cli
