// Structured logger contract: one well-formed JSONL line per call with
// user text escaped, level filtering, per-message rate limiting with a
// reported suppression count, and thread-safe concurrent emission (whole
// lines, never interleaved).
#include "obs/log.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "pipeline/thread_pool.h"

namespace aec::obs {
namespace {

/// Logger writing into a tmpfile we can read back.
struct CapturedLogger {
  CapturedLogger() : sink(std::tmpfile()), logger(sink) {
    logger.set_rate_limit_ms(0);  // most tests want every line
  }
  ~CapturedLogger() {
    if (sink != nullptr) std::fclose(sink);
  }

  std::string text() {
    std::fflush(sink);
    std::fseek(sink, 0, SEEK_SET);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, sink)) > 0) out.append(buf, n);
    return out;
  }

  std::vector<std::string> lines() {
    std::vector<std::string> out;
    std::string current;
    for (const char ch : text()) {
      if (ch == '\n') {
        out.push_back(current);
        current.clear();
      } else {
        current += ch;
      }
    }
    return out;
  }

  std::FILE* sink;
  Logger logger;
};

TEST(LogTest, EmitsOneJsonObjectPerLine) {
  CapturedLogger cap;
  cap.logger.info("aecd", "serving", 42);
  cap.logger.warn("net", "slow client");
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"component\":\"aecd\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"msg\":\"serving\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"request_id\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ts_ms\":"), std::string::npos);
  // request_id 0 = "not tied to a request": omitted, not emitted as 0.
  EXPECT_EQ(lines[1].find("request_id"), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"warn\""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(cap.logger.lines_written(), 2u);
}

TEST(LogTest, EscapesUserSuppliedText) {
  CapturedLogger cap;
  cap.logger.error("net", "bad name: \"x\"\nnext");
  const std::string text = cap.text();
  EXPECT_NE(text.find("bad name: \\\"x\\\"\\nnext"), std::string::npos);
  // Exactly one newline: the line terminator, not the embedded one.
  EXPECT_EQ(cap.lines().size(), 1u);
}

TEST(LogTest, MinLevelFilters) {
  CapturedLogger cap;
  cap.logger.set_min_level(LogLevel::kWarn);
  cap.logger.debug("c", "dropped");
  cap.logger.info("c", "dropped too");
  cap.logger.warn("c", "kept");
  cap.logger.error("c", "kept too");
  EXPECT_EQ(cap.lines().size(), 2u);
  cap.logger.set_min_level(LogLevel::kDebug);
  cap.logger.debug("c", "now visible");
  EXPECT_EQ(cap.lines().size(), 3u);
}

TEST(LogTest, RateLimitSuppressesRepeatsAndReportsCount) {
  CapturedLogger cap;
  cap.logger.set_rate_limit_ms(60 * 1000);  // nothing expires mid-test
  for (int i = 0; i < 5; ++i) cap.logger.warn("net", "dropping connection");
  cap.logger.warn("net", "different message");  // separate key
  EXPECT_EQ(cap.lines().size(), 2u);
  EXPECT_EQ(cap.logger.lines_suppressed(), 4u);

  // Once the window expires, the next repeat reports the loss.
  CapturedLogger cap2;
  cap2.logger.set_rate_limit_ms(1);  // 1 ms window
  cap2.logger.warn("net", "flaky");
  for (int i = 0; i < 3; ++i) cap2.logger.warn("net", "flaky");
  // Busy-wait past the window, then the repeat must carry the count.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (std::chrono::steady_clock::now() < deadline) {
  }
  cap2.logger.warn("net", "flaky");
  const std::string text = cap2.text();
  EXPECT_NE(text.find("\"suppressed\":3"), std::string::npos);
}

TEST(LogTest, ConcurrentWritersNeverInterleaveLines) {
  CapturedLogger cap;
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kPerTask = 200;
  {
    pipeline::ThreadPool pool(4);
    pipeline::ThreadPool::Group group;
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit(group, [&, t] {
        const std::string msg = "worker " + std::to_string(t);
        for (std::size_t i = 0; i < kPerTask; ++i)
          cap.logger.info("test", msg);
      });
    }
    pool.wait(group);
  }
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), kTasks * kPerTask);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"msg\":\"worker "), std::string::npos);
  }
}

}  // namespace
}  // namespace aec::obs
