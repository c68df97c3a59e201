// Network daemon load: an in-process aecd Server on a temp archive,
// driven by real Client connections over loopback TCP — the full
// framing/reactor/lane/backpressure path, no mocks.
//
// Phases:
//   · ingest        one connection streams file_mib up (PUT), then reads
//                   it back once for the byte-identity check;
//   · get_closed    C connections in closed loop, each streaming the
//                   whole file back kReps times — every transfer is
//                   byte-checked; reports aggregate MB/s and per-GET
//                   latency percentiles;
//   · ping_closed   C connections ping back-to-back: request/response
//                   overhead floor (req/s + latency percentiles);
//   · ping_open     fixed-rate open loop (~2000 req/s aggregate) with
//                   latencies measured from the *intended* send time, so
//                   queueing delay is charged, not hidden (no
//                   coordinated omission).
//
//   bench_net_load [file_mib] [connections] [--json]
//   (default 16 8; --json emits one JSON object per phase — the
//   cross-PR perf-tracking format; all latencies in µs; every row
//   records hw_cores, the machine's hardware threads)
//
// Every row states its latency sample count (`samples`), and reports a
// percentile only when at least ten samples lie beyond it: the p50 from
// one sample on, the p95 from 200 and the p99 from 1000. Below that a
// "p99" is merely the slowest request (get_closed at 8 connections has
// 24 samples, so it reports its p50 alone).
//
// GETs run on the daemon's read lanes (one per engine worker) beside its
// writer lane, all sharing the engine's one pool, so closed-loop GET
// throughput is the daemon's real serving capacity for concurrent
// clients, not C independent archives.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "tools/archive.h"

namespace {

using namespace aec;
using Clock = std::chrono::steady_clock;

namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t us_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// The percentiles a sample set supports (see the header comment); an
/// unsupported one is nullopt.
struct Percentiles {
  std::size_t samples = 0;
  std::optional<std::uint64_t> p50, p95, p99;
};

Percentiles percentiles(std::vector<std::uint64_t> samples) {
  Percentiles p;
  p.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  // The pct-th percentile, when at least ten samples lie above it.
  const auto at = [&](std::size_t pct) -> std::optional<std::uint64_t> {
    if (samples.size() * (100 - pct) < 1000) return std::nullopt;
    return samples[pct * (samples.size() - 1) / 100];
  };
  if (!samples.empty()) p.p50 = samples[(samples.size() - 1) / 2];
  p.p95 = at(95);
  p.p99 = at(99);
  return p;
}

struct PhaseRow {
  std::string phase;
  double wall_s = 0.0;
  double mb_per_s = 0.0;   // 0 when not a byte-moving phase
  double req_per_s = 0.0;  // 0 when not a request-rate phase
  Percentiles lat;
  bool ok = true;
};

void print_row(const PhaseRow& row, std::uint64_t file_mib,
               std::size_t connections, bool json) {
  const std::pair<const char*, std::optional<std::uint64_t>> lat[] = {
      {"p50", row.lat.p50}, {"p95", row.lat.p95}, {"p99", row.lat.p99}};
  if (json) {
    std::printf(
        "{\"schema_version\":1,\"bench\":\"net_load\",\"phase\":\"%s\","
        "\"file_mib\":%llu,\"connections\":%zu,\"wall_s\":%.3f,"
        "\"mb_per_s\":%.1f,\"req_per_s\":%.0f,\"samples\":%zu",
        row.phase.c_str(), static_cast<unsigned long long>(file_mib),
        connections, row.wall_s, row.mb_per_s, row.req_per_s,
        row.lat.samples);
    for (const auto& [name, value] : lat)
      if (value)
        std::printf(",\"%s_us\":%llu", name,
                    static_cast<unsigned long long>(*value));
    std::printf(",\"hw_cores\":%u,\"ok\":%s}\n",
                std::thread::hardware_concurrency(),
                row.ok ? "true" : "false");
  } else {
    std::printf("%-12s %8.3f s %10.1f MB/s %10.0f req/s   %6zu samples",
                row.phase.c_str(), row.wall_s, row.mb_per_s, row.req_per_s,
                row.lat.samples);
    for (const auto& [name, value] : lat)
      if (value)
        std::printf("  %s %llu µs", name,
                    static_cast<unsigned long long>(*value));
    std::printf("%s\n", row.ok ? "" : "  [FAILED]");
  }
}

int run(std::uint64_t file_mib, std::size_t connections, bool json) {
  const std::uint64_t total_bytes = file_mib << 20;
  const double mb = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  const fs::path root = fs::temp_directory_path() /
                        ("aec_bench_net_" + std::to_string(::getpid()));
  fs::remove_all(root);

  auto archive =
      tools::Archive::create(root, "AE(3,2,5)", 4096, Engine::with_threads(2));
  net::ServerConfig config;
  config.max_inflight = 256;  // the open-loop phase bursts above 64
  net::Server server(archive.get(), config);
  std::thread server_thread([&server] { server.run(); });
  const auto client_config = [&] {
    net::ClientConfig c;
    c.port = server.port();
    c.timeout_ms = 120'000;
    return c;
  };

  if (!json) {
    std::printf("net load — %llu MiB file, %zu connections, AE(3,2,5), "
                "loopback TCP\n",
                static_cast<unsigned long long>(file_mib), connections);
  }
  bool all_ok = true;

  // Deterministic payload, chunk-generated so the bench itself stays
  // O(chunk) in memory for the ingest direction.
  Rng payload_rng(2718);
  const Bytes payload = payload_rng.random_block(
      static_cast<std::size_t>(total_bytes));

  {  // --- ingest ---------------------------------------------------------
    net::Client client(client_config());
    const auto start = Clock::now();
    const net::PutResult put = client.put_bytes("load", payload);
    PhaseRow row;
    row.phase = "ingest";
    row.wall_s = seconds_since(start);
    row.mb_per_s = mb / row.wall_s;
    row.ok = put.bytes == total_bytes && client.get_bytes("load") == payload;
    all_ok = all_ok && row.ok;
    print_row(row, file_mib, connections, json);
  }

  {  // --- closed-loop GET -------------------------------------------------
    constexpr int kReps = 3;
    std::mutex mu;
    std::vector<std::uint64_t> latencies;
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < connections; ++c)
      workers.emplace_back([&] {
        try {
          net::Client client(client_config());
          for (int rep = 0; rep < kReps; ++rep) {
            const auto req_start = Clock::now();
            if (client.get_bytes("load") != payload) ok = false;
            const std::uint64_t us = us_since(req_start);
            std::lock_guard lock(mu);
            latencies.push_back(us);
          }
        } catch (...) {
          ok = false;
        }
      });
    for (auto& t : workers) t.join();
    PhaseRow row;
    row.phase = "get_closed";
    row.wall_s = seconds_since(start);
    row.mb_per_s =
        mb * static_cast<double>(connections * kReps) / row.wall_s;
    row.req_per_s =
        static_cast<double>(connections * kReps) / row.wall_s;
    row.lat = percentiles(std::move(latencies));
    row.ok = ok.load();
    all_ok = all_ok && row.ok;
    print_row(row, file_mib, connections, json);
  }

  {  // --- closed-loop ping ------------------------------------------------
    constexpr int kPings = 500;
    std::mutex mu;
    std::vector<std::uint64_t> latencies;
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < connections; ++c)
      workers.emplace_back([&] {
        try {
          net::Client client(client_config());
          std::vector<std::uint64_t> local;
          local.reserve(kPings);
          for (int i = 0; i < kPings; ++i) {
            const auto req_start = Clock::now();
            client.ping();
            local.push_back(us_since(req_start));
          }
          std::lock_guard lock(mu);
          latencies.insert(latencies.end(), local.begin(), local.end());
        } catch (...) {
          ok = false;
        }
      });
    for (auto& t : workers) t.join();
    PhaseRow row;
    row.phase = "ping_closed";
    row.wall_s = seconds_since(start);
    row.req_per_s =
        static_cast<double>(connections * kPings) / row.wall_s;
    row.lat = percentiles(std::move(latencies));
    row.ok = ok.load();
    all_ok = all_ok && row.ok;
    print_row(row, file_mib, connections, json);
  }

  {  // --- open-loop ping --------------------------------------------------
    // ~2000 req/s aggregate for ~1.5 s. Latency is measured from each
    // request's INTENDED send instant: a server that stalls pays for
    // every request queued behind the stall.
    constexpr double kAggregateRate = 2000.0;
    constexpr int kPerConn = 375;  // ≈1.5 s at the per-conn rate
    const double interval_s =
        static_cast<double>(connections) / kAggregateRate;
    std::mutex mu;
    std::vector<std::uint64_t> latencies;
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < connections; ++c)
      workers.emplace_back([&, c] {
        try {
          net::Client client(client_config());
          std::vector<std::uint64_t> local;
          local.reserve(kPerConn);
          // Stagger the connections across one interval.
          const double phase_offset =
              interval_s * static_cast<double>(c) /
              static_cast<double>(connections);
          for (int i = 0; i < kPerConn; ++i) {
            const auto intended =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                phase_offset + interval_s * i));
            std::this_thread::sleep_until(intended);
            client.ping();
            local.push_back(us_since(intended));
          }
          std::lock_guard lock(mu);
          latencies.insert(latencies.end(), local.begin(), local.end());
        } catch (...) {
          ok = false;
        }
      });
    for (auto& t : workers) t.join();
    PhaseRow row;
    row.phase = "ping_open";
    row.wall_s = seconds_since(start);
    row.req_per_s = static_cast<double>(connections * kPerConn) / row.wall_s;
    row.lat = percentiles(std::move(latencies));
    row.ok = ok.load();
    all_ok = all_ok && row.ok;
    print_row(row, file_mib, connections, json);
  }

  server.shutdown();
  server_thread.join();
  archive.reset();
  fs::remove_all(root);

  if (!all_ok) {
    std::printf("\nFAILED: a phase lost bytes or errored\n");
    return 1;
  }
  if (!json)
    std::printf("\nself-check OK: every transfer byte-identical\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else
      positional.emplace_back(argv[i]);
  }
  const std::uint64_t file_mib =
      positional.size() > 0 ? std::strtoull(positional[0].c_str(), nullptr, 10)
                            : 16;
  const std::size_t connections =
      positional.size() > 1 ? std::strtoull(positional[1].c_str(), nullptr, 10)
                            : 8;
  return run(file_mib, std::max<std::size_t>(connections, 1), json);
}
