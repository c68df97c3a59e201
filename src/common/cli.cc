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

[[noreturn]] void fail(Usage usage) {
  usage();
  std::exit(2);
}

template <typename T>
[[noreturn]] void reject(const char* key, const std::string& text,
                         const char* want, T lo, T hi, Usage usage) {
  std::ostringstream range;
  range << "[" << lo << ", " << hi << "]";
  std::fprintf(stderr, "error: %s wants %s in %s, got '%s'\n", key, want,
               range.str().c_str(), text.c_str());
  fail(usage);
}

}  // namespace

Args parse(int argc, const char* const* argv, const Commands& commands,
           const std::set<std::string>& flags, Usage usage) {
  if (argc < 2) fail(usage);
  Args args;
  args.command = argv[1];
  const auto command = commands.find(args.command);
  if (command == commands.end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 args.command.c_str());
    fail(usage);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 || arg == "-o") {
      const std::string key = arg == "-o" ? "--out" : arg;
      if (command->second.options.count(key) == 0) {
        std::fprintf(stderr, "error: unknown option '%s' for '%s'\n",
                     arg.c_str(), args.command.c_str());
        fail(usage);
      }
      const bool flag = flags.count(key) != 0;
      if (!flag && i + 1 >= argc) fail(usage);
      args.options[key] = flag ? "1" : argv[++i];
    } else {
      // A word past the command's positionals is most likely a value
      // whose option lost its "--": refuse it rather than ignore it.
      if (args.positional.size() == command->second.max_positionals) {
        std::fprintf(stderr, "error: unexpected argument '%s' for '%s'\n",
                     arg.c_str(), args.command.c_str());
        fail(usage);
      }
      args.positional.push_back(arg);
    }
  }
  return args;
}

const std::string& require(const Args& args, const char* key, Usage usage) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) {
    // A missing required option is a usage error, not an internal
    // failure: say what is missing, show the synopsis, exit 2.
    std::fprintf(stderr, "error: '%s' requires %s\n", args.command.c_str(),
                 key);
    fail(usage);
  }
  return it->second;
}

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

int scrub_exit_status(std::uint64_t unrecovered,
                      std::uint64_t inconsistent_parities,
                      std::uint64_t suspect_blocks) {
  return unrecovered == 0 && inconsistent_parities == 0 && suspect_blocks == 0
             ? 0
             : 1;
}

}  // namespace aec::cli
