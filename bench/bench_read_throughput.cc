// Read throughput: the session's one read path (BlockStream's batched
// prefetch + repair-on-read lookahead) at several windows, over the
// file-backed store an archive actually uses (FileBlockStore, exactly the
// Archive wiring) with AE(3,2,5) on a 1-thread engine.
//
// Phases: {healthy, degraded} × {w=1, windowed w ∈ {16, 64, 256},
// streamed}, plus node-loss × {w=1, streamed}. The w=1 phase is one
// window-1 stream over the whole run: the per-block reference, which
// fetches each block through the pool and repairs each lost block on
// its own. A windowed phase opens one stream per window, so its prefetch
// drains at every window boundary; the streamed phase opens one stream
// over the whole block run (what FileReader and aecd's GET serve from),
// whose lookahead never drains until the end. Damaged runs re-inject their
// pattern before every measurement: "degraded" loses four runs of
// consecutive data blocks (a damaged neighbourhood, 32 blocks), and
// "node-loss" loses every block strand placement puts on node 0 of 4 —
// a quarter of the data blocks, each one XOR from two live parities, the
// shape the stream's window repair runs in one wave per window. Every
// phase starts from a store freshly opened on the root (no block in
// memory), and its output is compared byte-for-byte against the
// deterministic source blocks (a fast wrong read is worthless); the run
// exits 1 on any mismatch.
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
#include "cluster/placement.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"

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

/// A failed node: every key of an intact session that strand placement
/// puts on node 0 of 4 (data and parity).
std::vector<BlockKey> node_damage(const CodecSession& session) {
  std::vector<BlockKey> victims;
  session.for_each_expected_key([&](const BlockKey& key) {
    if (cluster::place_block(key, 4, cluster::PlacementPolicy::kStrand, 0) ==
        0)
      victims.push_back(key);
  });
  return victims;
}

/// Damage shapes; the values index per-shape arrays.
enum Damage { kNone, kNeighbourhood, kNode, kDamageShapes };
const char* const kDamageNames[kDamageShapes] = {"none", "neighbourhood",
                                                 "node"};

struct Phase {
  enum class Mode { kWindowed, kStreamed };
  const char* label;
  Damage damage;
  Mode mode;
  std::size_t window;  // lookahead blocks (1 for the per-block reference)
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

  // The Archive wiring: a FileBlockStore read through a 1-thread
  // engine's session.
  auto store = std::make_unique<FileBlockStore>(root);
  auto engine = Engine::with_threads(1);
  const std::shared_ptr<const Codec> codec = make_codec("AE(3,2,5)");
  auto session = engine->open_session(codec, store.get(), block_size);

  // Deterministic source blocks laid end to end, one Rng draw per block,
  // kept for the per-phase byte check (tail zero-padded exactly like
  // ingest pads it).
  Rng rng(99);
  Bytes expected;
  expected.reserve(total_blocks * block_size);
  std::uint64_t produced = 0;
  for (std::uint64_t i = 0; i < total_blocks; ++i) {
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_size, total_bytes - produced));
    const Bytes block = rng.random_block(len);
    expected.insert(expected.end(), block.begin(), block.end());
    expected.resize(expected.size() + block_size - len);  // zero-padded tail
    produced += len;
  }
  const std::size_t append_chunk = 512 * block_size;
  for (std::size_t off = 0; off < expected.size(); off += append_chunk)
    session->append(BytesView(expected).subspan(
        off, std::min(append_chunk, expected.size() - off)));
  const auto expected_block = [&](std::uint64_t i) {
    return BytesView(expected).subspan(i * block_size, block_size);
  };

  std::vector<BlockKey> victims[kDamageShapes];
  for (const NodeIndex i : neighbourhood_damage(total_blocks))
    victims[kNeighbourhood].push_back(BlockKey::data(i));
  victims[kNode] = node_damage(*session);
  using Mode = Phase::Mode;
  const std::size_t stream_window = CodecSession::kReadWindowBlocks;
  const Phase phases[] = {
      {"healthy w=1", kNone, Mode::kStreamed, 1},
      {"healthy windowed w=16", kNone, Mode::kWindowed, 16},
      {"healthy windowed w=64", kNone, Mode::kWindowed, 64},
      {"healthy windowed w=256", kNone, Mode::kWindowed, 256},
      {"healthy streamed", kNone, Mode::kStreamed, stream_window},
      {"degraded w=1", kNeighbourhood, Mode::kStreamed, 1},
      {"degraded windowed w=16", kNeighbourhood, Mode::kWindowed, 16},
      {"degraded windowed w=64", kNeighbourhood, Mode::kWindowed, 64},
      {"degraded windowed w=256", kNeighbourhood, Mode::kWindowed, 256},
      {"degraded streamed", kNeighbourhood, Mode::kStreamed, stream_window},
      {"node-loss w=1", kNode, Mode::kStreamed, 1},
      {"node-loss streamed", kNode, Mode::kStreamed, stream_window},
  };

  // Best-of-3 per phase: the per-phase walls are tens of milliseconds,
  // so a single scheduler hiccup would swamp the mode comparison. Every
  // repetition starts from the same state (damage re-injected, store
  // reopened cold) and is byte-checked.
  constexpr int kReps = 3;
  bool all_ok = true;
  double reference_mb_s[kDamageShapes] = {};  // w=1 speedup baselines
  for (const Phase& phase : phases) {
    double wall = 0.0;
    bool identical = false;
    for (int rep = 0; rep < kReps; ++rep) {
      // Re-inject the identical damage pattern (the previous
      // repetition's repairs healed it).
      for (const BlockKey& victim : victims[phase.damage])
        store->erase(victim);
      // Every repetition starts cold: a store opened afresh on the root
      // holds no block in memory.
      session.reset();
      store = std::make_unique<FileBlockStore>(root);
      session =
          engine->open_session(codec, store.get(), block_size, total_blocks);

      // Each block is checked as it arrives and then dropped, as a reader
      // that copies blocks out does: keeping every block of the run would
      // time the page faults of that buffer, not the read.
      const auto start = Clock::now();
      std::uint64_t delivered = 0;
      bool rep_identical = true;
      // A streamed phase is one run; a windowed one, one run per window.
      const std::uint64_t run = phase.mode == Mode::kStreamed
                                    ? total_blocks
                                    : phase.window;
      for (std::uint64_t first = 1; first <= total_blocks; first += run) {
        const auto stream = session->open_stream(
            static_cast<NodeIndex>(first),
            std::min<std::uint64_t>(run, total_blocks - first + 1),
            phase.window);
        while (!stream->exhausted()) {
          const Block block = stream->next();
          rep_identical = rep_identical && delivered < total_blocks &&
                          block == expected_block(delivered);
          ++delivered;
        }
      }
      const double rep_wall = seconds_since(start);
      rep_identical = rep_identical && delivered == total_blocks;
      identical = rep == 0 ? rep_identical : (identical && rep_identical);
      wall = rep == 0 ? rep_wall : std::min(wall, rep_wall);
    }
    all_ok = all_ok && identical;

    const double mb_per_s = mb / wall;
    const bool baseline = phase.window == 1;
    if (baseline) reference_mb_s[phase.damage] = mb_per_s;
    if (json) {
      std::printf(
          "{\"schema_version\":1,\"bench\":\"read_throughput\","
          "\"phase\":\"%s\",\"damage\":\"%s\",\"window\":%zu,"
          "\"file_mib\":%llu,\"block_size\":%zu,\"mb_per_s\":%.1f,"
          "\"wall_s\":%.3f,\"hw_cores\":%u,\"identical\":%s}\n",
          phase.label, kDamageNames[phase.damage], phase.window,
          static_cast<unsigned long long>(file_mib), block_size, mb_per_s,
          wall, hw_cores, identical ? "true" : "false");
    } else {
      const double base = reference_mb_s[phase.damage];
      if (baseline || base <= 0.0) {
        std::printf("%-28s %10.1f %12.3f%s\n", phase.label, mb_per_s, wall,
                    identical ? "" : "  [BYTE MISMATCH]");
      } else {
        std::printf("%-28s %10.1f %12.3f  %.2fx w=1%s\n", phase.label,
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
