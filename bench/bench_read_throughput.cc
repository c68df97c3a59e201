// Read throughput: the pipelined read path (BlockFetcher prefetch +
// repair-on-read lookahead) vs the per-block baseline (read_block loop,
// one get_copy + repair per block), over the file-backed store an
// archive actually uses (FileBlockStore behind a LockedBlockStore,
// exactly the Archive wiring) with AE(3,2,5) on a 1-thread engine.
//
// Phases: {healthy, degraded} × {per-block, windowed w ∈ {16, 64, 256},
// streamed}. A windowed phase calls read_blocks once per window, so its
// prefetch drains at every window boundary; the streamed phase opens one
// session BlockStream over the whole block run (what FileReader and
// aecd's GET serve from), whose lookahead never drains until the end.
// Degraded runs re-inject the same damaged-neighbourhood pattern (runs
// of consecutive data blocks — the shape repair-on-read lookahead is
// built for) before every measurement, and every phase starts from a
// cold payload cache. Every phase's output is compared byte-for-byte
// against the deterministic source blocks (a fast wrong read is
// worthless); the run exits 1 on any mismatch.
//
//   bench_read_throughput [file_mib] [block_size] [--json]
//   (default 32 4096; --json emits one JSON object per phase and
//   suppresses the table — the cross-PR perf-tracking format; every row
//   records hw_cores, the machine's hardware threads)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "pipeline/concurrent_block_store.h"

namespace {

using namespace aec;
using Clock = std::chrono::steady_clock;

namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Damaged neighbourhoods: four runs of eight consecutive data blocks,
/// spread across the sequence (all recoverable — parities stay intact).
std::vector<NodeIndex> neighbourhood_damage(std::uint64_t total_blocks) {
  std::vector<NodeIndex> victims;
  for (int run = 1; run <= 4; ++run) {
    const std::uint64_t start = total_blocks * run / 5;
    for (std::uint64_t i = 0; i < 8 && start + i <= total_blocks; ++i)
      victims.push_back(static_cast<NodeIndex>(start + i));
  }
  return victims;
}

struct Phase {
  enum class Mode { kPerBlock, kWindowed, kStreamed };
  const char* label;
  bool damaged;
  Mode mode;
  std::size_t window;  // lookahead blocks (0 for the per-block baseline)
};

int run(std::uint64_t file_mib, std::size_t block_size, bool json) {
  const std::uint64_t total_bytes = file_mib << 20;
  const std::uint64_t total_blocks =
      (total_bytes + block_size - 1) / block_size;
  const double mb = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  const fs::path root =
      fs::temp_directory_path() /
      ("aec_bench_read_" + std::to_string(::getpid()));
  fs::remove_all(root);

  const unsigned hw_cores = std::thread::hardware_concurrency();
  if (!json) {
    std::printf(
        "read throughput — %llu MiB, %zu B blocks, AE(3,2,5), file store, "
        "%u hw cores\n",
        static_cast<unsigned long long>(file_mib), block_size, hw_cores);
    std::printf("%-28s %10s %12s\n", "phase", "MB/s", "wall s");
  }

  // The Archive wiring: FileBlockStore behind a LockedBlockStore, read
  // through a 1-thread engine's session.
  FileBlockStore store(root);
  pipeline::LockedBlockStore locked(&store);
  auto engine = Engine::with_threads(1);
  auto session =
      engine->open_session(make_codec("AE(3,2,5)"), &locked, block_size);

  // Deterministic source blocks, kept for the per-phase byte check
  // (tail zero-padded exactly like ingest pads it).
  Rng rng(99);
  std::vector<Bytes> expected;
  expected.reserve(total_blocks);
  std::uint64_t produced = 0;
  for (std::uint64_t i = 0; i < total_blocks; ++i) {
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_size, total_bytes - produced));
    Bytes block = rng.random_block(len);
    block.resize(block_size);  // zero-padded tail
    produced += len;
    expected.push_back(std::move(block));
  }
  constexpr std::size_t kAppendChunk = 512;
  for (std::size_t off = 0; off < expected.size(); off += kAppendChunk) {
    const auto end =
        std::min(off + kAppendChunk, expected.size());
    session->append({expected.begin() + static_cast<std::ptrdiff_t>(off),
                     expected.begin() + static_cast<std::ptrdiff_t>(end)});
  }

  const std::vector<NodeIndex> victims = neighbourhood_damage(total_blocks);
  using Mode = Phase::Mode;
  const std::size_t stream_window = session->read_window_blocks();
  const Phase phases[] = {
      {"healthy per-block", false, Mode::kPerBlock, 0},
      {"healthy windowed w=16", false, Mode::kWindowed, 16},
      {"healthy windowed w=64", false, Mode::kWindowed, 64},
      {"healthy windowed w=256", false, Mode::kWindowed, 256},
      {"healthy streamed", false, Mode::kStreamed, stream_window},
      {"degraded per-block", true, Mode::kPerBlock, 0},
      {"degraded windowed w=16", true, Mode::kWindowed, 16},
      {"degraded windowed w=64", true, Mode::kWindowed, 64},
      {"degraded windowed w=256", true, Mode::kWindowed, 256},
      {"degraded streamed", true, Mode::kStreamed, stream_window},
  };

  // Best-of-3 per phase: the per-phase walls are tens of milliseconds,
  // so a single scheduler hiccup would swamp the mode comparison. Every
  // repetition starts from the same state (damage re-injected, payload
  // cache cold) and is byte-checked.
  constexpr int kReps = 3;
  bool all_ok = true;
  double perblock_mb_s[2] = {0.0, 0.0};  // [damaged] baseline for speedup
  for (const Phase& phase : phases) {
    double wall = 0.0;
    bool identical = false;
    for (int rep = 0; rep < kReps; ++rep) {
      if (phase.damaged) {
        // Re-inject the identical neighbourhood pattern (the previous
        // repetition's repairs healed it).
        for (const NodeIndex victim : victims)
          locked.erase(BlockKey::data(victim));
      }
      locked.drop_payload_cache();  // every repetition starts cold

      const auto start = Clock::now();
      std::vector<std::optional<Bytes>> out;
      out.reserve(total_blocks);
      if (phase.mode == Mode::kPerBlock) {
        for (std::uint64_t i = 1; i <= total_blocks; ++i)
          out.push_back(session->read_block(static_cast<NodeIndex>(i)));
      } else if (phase.mode == Mode::kWindowed) {
        for (std::uint64_t first = 1; first <= total_blocks;
             first += phase.window) {
          const std::uint64_t count =
              std::min<std::uint64_t>(phase.window, total_blocks - first + 1);
          auto range = session->read_blocks(static_cast<NodeIndex>(first),
                                            count, phase.window);
          for (auto& block : range) out.push_back(std::move(block));
        }
      } else {
        const auto stream = session->open_stream(1, total_blocks, phase.window);
        while (!stream->exhausted()) out.push_back(stream->next());
      }
      const double rep_wall = seconds_since(start);

      bool rep_identical = out.size() == total_blocks;
      for (std::uint64_t i = 0; rep_identical && i < total_blocks; ++i)
        rep_identical = out[i].has_value() && *out[i] == expected[i];
      identical = rep == 0 ? rep_identical : (identical && rep_identical);
      wall = rep == 0 ? rep_wall : std::min(wall, rep_wall);
    }
    all_ok = all_ok && identical;

    const double mb_per_s = mb / wall;
    const bool baseline = phase.mode == Mode::kPerBlock;
    if (baseline) perblock_mb_s[phase.damaged ? 1 : 0] = mb_per_s;
    if (json) {
      std::printf(
          "{\"schema_version\":1,\"bench\":\"read_throughput\","
          "\"phase\":\"%s\",\"damage\":\"%s\",\"window\":%zu,"
          "\"file_mib\":%llu,\"block_size\":%zu,\"mb_per_s\":%.1f,"
          "\"wall_s\":%.3f,\"hw_cores\":%u,\"identical\":%s}\n",
          phase.label, phase.damaged ? "neighbourhood" : "none", phase.window,
          static_cast<unsigned long long>(file_mib), block_size, mb_per_s,
          wall, hw_cores, identical ? "true" : "false");
    } else {
      const double base = perblock_mb_s[phase.damaged ? 1 : 0];
      if (baseline || base <= 0.0) {
        std::printf("%-28s %10.1f %12.3f%s\n", phase.label, mb_per_s, wall,
                    identical ? "" : "  [BYTE MISMATCH]");
      } else {
        std::printf("%-28s %10.1f %12.3f  %.2fx per-block%s\n", phase.label,
                    mb_per_s, wall, mb_per_s / base,
                    identical ? "" : "  [BYTE MISMATCH]");
      }
    }
  }

  session.reset();
  fs::remove_all(root);
  if (!all_ok) {
    std::printf("\nFAILED: read-back did not match the source blocks\n");
    return 1;
  }
  if (!json)
    std::printf("\nself-check OK: every phase byte-identical to the source\n");
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
                            : 32;
  const std::size_t block_size =
      positional.size() > 1 ? std::strtoull(positional[1].c_str(), nullptr, 10)
                            : 4096;
  return run(file_mib, block_size, json);
}
