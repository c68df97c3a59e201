// cli::parse and cli::require on well-formed command lines. Their error
// paths print the usage text and exit 2; the CLI smoke steps in CI run
// those against the built tools.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"

namespace aec::cli {
namespace {

const AllowedOptions kAllowed = {
    {"get", {"--root", "--name", "--out", "--json"}},
    {"ls", {"--root"}},
};

/// A usage printer no well-formed line may reach.
void unexpected_usage() { std::abort(); }

Args parse_line(std::vector<const char*> argv) {
  return parse(static_cast<int>(argv.size()), argv.data(), kAllowed,
               {"--json"}, unexpected_usage);
}

TEST(CliParse, ReadsFlagsOutPositionalsAndATrailingValue) {
  const Args args =
      parse_line({"tool", "get", "--json", "first", "-o", "out.bin",
                  "--root", "/r", "second", "--name", "doc"});
  EXPECT_EQ(args.command, "get");
  EXPECT_EQ(args.options, (std::map<std::string, std::string>{
                              {"--json", "1"},
                              {"--out", "out.bin"},
                              {"--root", "/r"},
                              {"--name", "doc"}}));
  EXPECT_EQ(args.positional, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(require(args, "--name", unexpected_usage), "doc");
  EXPECT_EQ(require(args, "--out", unexpected_usage), "out.bin");
}

TEST(CliParse, CommandAlone) {
  const Args args = parse_line({"tool", "ls"});
  EXPECT_EQ(args.command, "ls");
  EXPECT_TRUE(args.options.empty());
  EXPECT_TRUE(args.positional.empty());
}

}  // namespace
}  // namespace aec::cli
