// Health telemetry maintenance cost: incremental delta replay
// (HealthMonitor::on_block, the store-observer hook, O(damage)) versus
// brute-force full-lattice rescans (compute_degraded_full, O(lattice))
// at 1%, 5% and 20% random damage on AE(3,2,5).
//
//   bench_health_scan [n_nodes] [--json]
//   (default 200000; --json emits one JSON object per phase — the
//   BENCH_health.json rows CI parses; every row records hw_cores, the
//   machine's hardware threads)
//
// The claim under test is the one the monitor's design rests on: keeping
// the Fig. 12 vulnerability census live must cost O(deltas), so a mostly
// healthy archive pays almost nothing, while a scan-based census pays
// O(lattice) on every refresh no matter how little changed. The monitor
// is the archive's only record of what is missing, and it holds one byte
// per lattice node (200 KB at the default 200000 nodes) — the missing
// set and the margins together — so a delta hashes nothing; the
// incremental rows time the monitor's on_block alone, exactly as a store
// calls it. One pass of 8,000–160,000 deltas takes 0.5–10 ms, too short
// for one timing to resolve a 10% change, so an incremental row times
// kIncrementalReps passes, each on a fresh monitor over the same damage
// list, and reports their median wall time (`reps`). Both paths are
// cross-checked for agreement before timing is reported (ok=false
// poisons the row, and CI's JSON gate sees it); the full rescans read
// the bench's own damage list, never the monitor.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace {

using namespace aec;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Every key the open lattice stores: n data + α·n parities.
std::vector<BlockKey> key_universe(const CodeParams& params,
                                   std::uint64_t n_nodes) {
  std::vector<BlockKey> keys;
  keys.reserve(n_nodes * (1 + params.alpha()));
  for (NodeIndex i = 1; static_cast<std::uint64_t>(i) <= n_nodes; ++i) {
    keys.push_back(BlockKey::data(i));
    for (const StrandClass cls : params.classes())
      keys.push_back(BlockKey::parity(Edge{cls, i}));
  }
  return keys;
}

/// Timed passes per incremental row; the row reports their median.
constexpr int kIncrementalReps = 9;

struct PhaseRow {
  const char* mode;  // "incremental" | "full_rescan"
  double damage_pct;
  std::uint64_t n_nodes;
  std::uint64_t deltas;      // events replayed per pass (incremental) / 0
  std::uint64_t scans;       // rescans timed (full) / 0
  int reps;                  // passes timed (incremental) / 0
  double wall_ms;            // incremental: median pass; full: all scans
  double per_refresh_ms;     // one up-to-date census
  std::uint64_t degraded;
  std::uint64_t vulnerable;
  bool ok;
};

void print_row(const PhaseRow& row, bool json) {
  if (json) {
    char reps[32] = "";
    if (row.reps > 0)
      std::snprintf(reps, sizeof reps, "\"reps\":%d,", row.reps);
    std::printf(
        "{\"schema_version\":1,\"bench\":\"health_scan\",\"mode\":\"%s\","
        "\"damage_pct\":%.0f,\"n_nodes\":%llu,\"deltas\":%llu,"
        "\"scans\":%llu,%s\"wall_ms\":%.3f,\"per_refresh_ms\":%.4f,"
        "\"degraded\":%llu,\"vulnerable\":%llu,\"hw_cores\":%u,"
        "\"ok\":%s}\n",
        row.mode, row.damage_pct,
        static_cast<unsigned long long>(row.n_nodes),
        static_cast<unsigned long long>(row.deltas),
        static_cast<unsigned long long>(row.scans), reps, row.wall_ms,
        row.per_refresh_ms, static_cast<unsigned long long>(row.degraded),
        static_cast<unsigned long long>(row.vulnerable),
        std::thread::hardware_concurrency(), row.ok ? "true" : "false");
  } else {
    std::printf("  %-12s %5.0f%%  %9llu deltas  %9.2f ms total  "
                "%9.4f ms/refresh  %8llu degraded  %7llu vulnerable%s\n",
                row.mode, row.damage_pct,
                static_cast<unsigned long long>(row.deltas), row.wall_ms,
                row.per_refresh_ms,
                static_cast<unsigned long long>(row.degraded),
                static_cast<unsigned long long>(row.vulnerable),
                row.ok ? "" : "  MISMATCH");
  }
  std::fflush(stdout);
}

int run(std::uint64_t n_nodes, bool json) {
  const CodeParams params(3, 2, 5);
  const std::vector<BlockKey> keys = key_universe(params, n_nodes);
  std::FILE* sink = std::tmpfile();  // health transitions, not bench output
  obs::Logger quiet(sink != nullptr ? sink : stderr);

  if (!json)
    std::printf("health census maintenance — AE(3,2,5), %llu nodes, %zu "
                "blocks\n\n",
                static_cast<unsigned long long>(n_nodes), keys.size());

  for (const double fraction : {0.01, 0.05, 0.20}) {
    // One damage set per fraction, shared by both modes.
    std::mt19937_64 rng(0xF12 + static_cast<std::uint64_t>(fraction * 100));
    std::vector<BlockKey> damage;
    const auto target = static_cast<std::size_t>(
        static_cast<double>(keys.size()) * fraction);
    for (std::size_t i = 0; i < target; ++i)
      damage.push_back(keys[rng() % keys.size()]);

    // Incremental: every delta lands in the monitor as it happens; the
    // census is continuously up to date, so per_refresh is ~free (one
    // summary() call). Each pass starts from a fresh, healthy monitor;
    // the last one's census is cross-checked below.
    std::vector<double> pass_ms;
    obs::HealthSummary summary;
    std::vector<obs::BlockHealth> census;
    for (int rep = 0; rep < kIncrementalReps; ++rep) {
      obs::MetricsRegistry registry;
      obs::HealthMonitor monitor(&registry, &quiet);
      monitor.configure_lattice(params, n_nodes);
      const auto inc_start = Clock::now();
      for (const BlockKey& key : damage) monitor.on_block(key, false);
      summary = monitor.summary();
      pass_ms.push_back(ms_since(inc_start));
      if (rep + 1 == kIncrementalReps) census = monitor.degraded_all();
    }
    std::nth_element(pass_ms.begin(), pass_ms.begin() + kIncrementalReps / 2,
                     pass_ms.end());
    const double inc_ms = pass_ms[kIncrementalReps / 2];

    // Full rescan: what a scan-based census pays for EVERY refresh.
    constexpr std::uint64_t kScans = 5;
    const auto full_start = Clock::now();
    std::vector<obs::BlockHealth> full;
    for (std::uint64_t s = 0; s < kScans; ++s)
      full = obs::compute_degraded_full(params, n_nodes, damage);
    const double full_ms = ms_since(full_start);

    std::uint64_t full_vulnerable = 0;
    for (const obs::BlockHealth& b : full)
      if (b.margin == 0) ++full_vulnerable;
    const bool ok = census == full &&
                    summary.vulnerable_blocks == full_vulnerable;

    print_row({"incremental", fraction * 100, n_nodes, damage.size(), 0,
               kIncrementalReps, inc_ms,
               inc_ms / static_cast<double>(damage.size()),
               summary.degraded_blocks, summary.vulnerable_blocks, ok},
              json);
    print_row({"full_rescan", fraction * 100, n_nodes, 0, kScans, 0, full_ms,
               full_ms / static_cast<double>(kScans), full.size(),
               full_vulnerable, ok},
              json);
    if (!json) std::printf("\n");
    if (!ok) return 1;
  }
  if (sink != nullptr) std::fclose(sink);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n_nodes = 200'000;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else
      n_nodes = std::strtoull(argv[i], nullptr, 10);
  }
  if (n_nodes < 10) n_nodes = 10;
  return run(n_nodes, json);
}
