// cli::parse and cli::require on well-formed command lines, and
// cli::write_chunk. The parser's error paths print the usage text and
// exit 2; the CLI smoke steps in CI run those against the built tools.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"

namespace aec::cli {
namespace {

const Commands kCommands = {
    {"get", {{"--root", "--name", "--out", "--json"}, 2}},
    {"ls", {{"--root"}}},
};

/// A usage printer no well-formed line may reach.
void unexpected_usage() { std::abort(); }

Args parse_line(std::vector<const char*> argv) {
  return parse(static_cast<int>(argv.size()), argv.data(), kCommands,
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

TEST(CliWriteChunk, WritesAWholeChunkAndNamesTheStreamOnAShortWrite) {
  const Bytes chunk(4096, 0xAB);
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  write_chunk(file, "the file", chunk);
  EXPECT_EQ(std::ftell(file), 4096);
  std::fclose(file);

  // /dev/full refuses every write; unbuffered, the write itself fails.
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "no /dev/full on this system";
  std::setvbuf(full, nullptr, _IONBF, 0);
  try {
    write_chunk(full, "stdout", chunk);
    ADD_FAILURE() << "a write to /dev/full succeeded";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.message(), "cannot write stdout");
  }
  std::fclose(full);
}

}  // namespace
}  // namespace aec::cli
