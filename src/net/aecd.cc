// aecd — archive daemon: serves one archive over TCP (protocol.h).
//
//   aecd --root DIR [--port P] [--bind ADDR] [--threads N]
//        [--max-inflight N] [--idle-timeout-ms N] [--port-file PATH]
//        [--http-port P] [--http-port-file PATH] [--log-level LEVEL]
//
// The daemon owns the archive for its lifetime: one epoll reactor
// thread multiplexes every connection, one writer lane drives ingest and
// the exclusive operations while one read lane per engine worker serves
// GETs beside it (server.h), and the engine's worker pool (--threads)
// parallelizes each operation internally. --port 0 (the default) binds an ephemeral port;
// --port-file writes the bound port to PATH so scripts can discover it
// without parsing logs. SIGTERM/SIGINT trigger a graceful drain:
// in-flight requests finish and flush, new ones are refused with
// `shutting_down`, then the process exits 0.
//
// --http-port adds the observability listener on the same reactor:
// GET /metrics (Prometheus text exposition), GET /healthz (200/503 off
// the live health gauges) and GET /trace (span ring as JSONL; the ring
// is enabled at startup when the listener is on, so wire-propagated
// trace ids from traced aecc clients are queryable). Daemon lifecycle
// messages are structured JSONL on stderr (obs/log.h) — grep-able and
// machine-parseable, with repeated messages rate-limited.
#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/check.h"
#include "common/cli.h"
#include "net/server.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "tools/archive.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: aecd --root DIR [options]\n"
      "  --root DIR             archive to serve (required)\n"
      "  --port P               TCP port (default 0 = ephemeral)\n"
      "  --bind ADDR            bind address (default 127.0.0.1)\n"
      "  --threads N            engine worker threads, 1..1024 (default 1)\n"
      "  --max-inflight N       admission limit, at least 1 (default 64)\n"
      "  --idle-timeout-ms N    idle connection sweep (default 60000,"
      " 0 = off)\n"
      "  --port-file PATH       write the bound port to PATH\n"
      "  --http-port P          observability HTTP listener (/metrics,\n"
      "                         /healthz, /trace); 0 = ephemeral;\n"
      "                         absent = disabled\n"
      "  --http-port-file PATH  write the bound HTTP port to PATH\n"
      "  --log-level LEVEL      debug|info|warn|error (default info)\n");
  std::exit(2);
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", key.c_str());
      usage();
    }
    options[key] = argv[++i];
  }
  const auto root_it = options.find("--root");
  if (root_it == options.end()) {
    std::fprintf(stderr, "error: aecd requires --root\n");
    usage();
  }

  aec::net::ServerConfig config;
  std::size_t threads = 1;
  std::string port_file;
  std::string http_port_file;
  for (const auto& [key, value] : options) {
    // Bounded, so a value never wraps when cast to the option's type.
    const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
      return aec::cli::parse_unsigned(key.c_str(), value, lo, hi, usage);
    };
    if (key == "--root") {
      continue;
    } else if (key == "--port") {
      config.port = static_cast<std::uint16_t>(number(0, 65535));
    } else if (key == "--bind") {
      config.bind_address = value;
    } else if (key == "--threads") {
      threads = static_cast<std::size_t>(number(1, 1024));
    } else if (key == "--max-inflight") {
      config.max_inflight = static_cast<std::size_t>(number(1, 999999999));
    } else if (key == "--idle-timeout-ms") {
      config.idle_timeout_ms = static_cast<int>(number(0, 999999999));
    } else if (key == "--port-file") {
      port_file = value;
    } else if (key == "--http-port") {
      config.http_port = static_cast<int>(number(0, 65535));
    } else if (key == "--http-port-file") {
      http_port_file = value;
    } else if (key == "--log-level") {
      if (value == "debug") {
        aec::obs::Logger::global().set_min_level(aec::obs::LogLevel::kDebug);
      } else if (value == "info") {
        aec::obs::Logger::global().set_min_level(aec::obs::LogLevel::kInfo);
      } else if (value == "warn") {
        aec::obs::Logger::global().set_min_level(aec::obs::LogLevel::kWarn);
      } else if (value == "error") {
        aec::obs::Logger::global().set_min_level(aec::obs::LogLevel::kError);
      } else {
        std::fprintf(stderr, "error: --log-level wants debug|info|warn|"
                             "error, got '%s'\n", value.c_str());
        usage();
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", key.c_str());
      usage();
    }
  }

  // Block the shutdown signals before any thread exists so they are
  // only ever delivered through the signalfd on the reactor.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  AEC_CHECK_MSG(pthread_sigmask(SIG_BLOCK, &mask, nullptr) == 0,
                "pthread_sigmask: " << std::strerror(errno));
  const int sig_fd = ::signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  AEC_CHECK_MSG(sig_fd >= 0, "signalfd: " << std::strerror(errno));

  auto archive = aec::tools::Archive::open(
      root_it->second, aec::Engine::with_threads(threads));
  aec::net::Server server(archive.get(), config);
  aec::obs::Logger& log = aec::obs::Logger::global();

  server.loop().add(sig_fd, EPOLLIN, [&server, sig_fd, &log](std::uint32_t) {
    signalfd_siginfo info;
    while (::read(sig_fd, &info, sizeof info) == sizeof info) {
    }
    log.info("aecd", "draining: shutdown signal received");
    server.shutdown();
  });

  const auto write_port_file = [](const std::string& path,
                                  std::uint16_t port) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    AEC_CHECK_MSG(out != nullptr,
                  "cannot write " << path << ": " << std::strerror(errno));
    std::fprintf(out, "%u\n", port);
    std::fclose(out);
  };
  if (!port_file.empty()) write_port_file(port_file, server.port());
  if (!http_port_file.empty() && config.http_port >= 0)
    write_port_file(http_port_file, server.http_port());

  if (config.http_port >= 0) {
    // With the exposition listener up, arm the span ring so GET /trace
    // has content and traced clients' ids are queryable server-side.
    aec::obs::TraceRing::global().enable();
    log.info("aecd", "observability http on " + config.bind_address + ":" +
                         std::to_string(server.http_port()) +
                         " (/metrics /healthz /trace)");
  }
  log.info("aecd", "serving " + root_it->second + " on " +
                       config.bind_address + ":" +
                       std::to_string(server.port()) + " (pid " +
                       std::to_string(::getpid()) + ")");

  server.run();
  ::close(sig_fd);
  log.info("aecd", "drained, exiting");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const aec::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.message());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
