// Node rebuild throughput on multi-node cluster archives: fail one
// whole failure domain, replace it, and measure how fast the repair
// planner re-materializes the node — vs. node count, placement policy
// and child store: file-backed children (FileBlockStore, one file per
// block) and in-memory ones (ConcurrentBlockStore, the `mem` family),
// whose rows show the rebuild without the device.
//
// This is the cluster layer's version of the paper's repair claims: a
// node holds ~1/N of every strand, so (a) rebuild cost scales with the
// node's share of the archive, not the archive (O(damage) planning from
// the health census), and (b) strand placement turns nearly all of
// the node's data blocks into round-1 single-failure repairs, while the
// naive rr layout (a data block colocated with its output parities)
// needs extra rounds. The reported MB/s is re-materialized payload over
// the full rebuild wall time (replace + plan + repair). A `mem` rebuild
// takes a few ms, so each `mem` row times kMemReps rebuilds, each of a
// freshly built archive, and reports their median (`reps` in the JSON);
// a `file` row times one.
//
// Every phase verifies the rebuilt store: each re-materialized block is
// byte-compared against a pre-failure fingerprint of the node (a fast
// wrong rebuild is worthless). Irrecoverable blocks are a *measurement*,
// not a failure — e.g. rr on 2 domains colocates a data block with all
// of its output parities and genuinely loses data, which is exactly the
// policy contrast this bench exists to show; the self-check only fails
// on wrong bytes or on a lost count that disagrees with the repair
// report's residue.
//
//   bench_node_rebuild [blocks] [block_size] [--json]
//   (default 2000 4096; --json emits one JSON object per phase —
//   the cross-PR perf-tracking format; every row names its child store
//   and records hw_cores, the machine's hardware threads)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/rng.h"
#include "tools/archive.h"

namespace {

using namespace aec;
using namespace aec::tools;
using Clock = std::chrono::steady_clock;

namespace fs = std::filesystem;

/// Rebuilds per `mem` row.
constexpr int kMemReps = 9;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed rebuild and its self-check.
struct Rebuild {
  double wall = 0.0;
  std::uint32_t rounds = 0;
  std::size_t node_blocks = 0;  // the node's blocks before the failure
  std::size_t rebuilt = 0;      // ... and after the rebuild
  std::uint64_t lost = 0;
  bool ok = false;
};

/// Builds a `store_spec` archive at `root` holding `content`, fails and
/// rebuilds node 1, and byte-checks the rebuilt node.
Rebuild rebuild_once(const fs::path& root, const std::string& store_spec,
                     const Bytes& content, std::size_t block_size) {
  fs::remove_all(root);
  auto archive =
      Archive::create(root, "AE(3,2,5)", block_size, {}, store_spec);
  archive->add_file("doc", content);

  constexpr std::uint32_t kVictim = 1;
  const auto before = archive->cluster()->fingerprint(kVictim);

  const auto start = Clock::now();
  archive->fail_node(kVictim);
  const RepairReport report = archive->rebuild_node(kVictim);
  const double wall = seconds_since(start);

  // Byte-verify the re-materialized node against the pre-failure
  // fingerprint: every rebuilt block must carry its original bytes;
  // anything absent must be accounted for by the report's residue.
  const auto after = archive->cluster()->fingerprint(kVictim);
  std::uint64_t wrong_bytes = 0;
  std::uint64_t lost = 0;
  for (const auto& [key, hash] : before) {
    const auto it = after.find(key);
    if (it == after.end())
      ++lost;
    else if (it->second != hash)
      ++wrong_bytes;
  }
  const std::uint64_t residue =
      report.nodes_unrecovered + report.edges_unrecovered;
  const bool ok = wrong_bytes == 0 && after.size() + lost == before.size() &&
                  lost <= residue;  // residue may also count other nodes' keys
  return {wall, report.rounds, before.size(), after.size(), lost, ok};
}

/// Times a row's rebuilds (kMemReps on `mem` children, one on `file`),
/// prints the row at their median wall time and returns its self-check:
/// every rebuild byte-identical, and all of them alike.
bool run_phase(const fs::path& root, std::uint32_t nodes, const char* policy,
               const char* child, const Bytes& content,
               std::size_t block_size, bool json) {
  const std::string store_spec = "cluster(" + std::to_string(nodes) + "," +
                                 policy + "," + child + ")";
  const int reps = std::strcmp(child, "mem") == 0 ? kMemReps : 1;
  std::vector<Rebuild> runs;
  for (int r = 0; r < reps; ++r)
    runs.push_back(rebuild_once(root, store_spec, content, block_size));
  bool ok = true;
  for (const Rebuild& run : runs)
    ok = ok && run.ok && run.rounds == runs[0].rounds &&
         run.lost == runs[0].lost && run.rebuilt == runs[0].rebuilt &&
         run.node_blocks == runs[0].node_blocks;
  std::vector<double> walls;
  for (const Rebuild& run : runs) walls.push_back(run.wall);
  std::sort(walls.begin(), walls.end());
  const double wall = walls[walls.size() / 2];
  const Rebuild& first = runs[0];

  const double rebuilt_mb = static_cast<double>(first.rebuilt) *
                            static_cast<double>(block_size) /
                            (1024.0 * 1024.0);
  const auto blocks = content.size() / block_size;
  if (json) {
    std::printf(
        "{\"schema_version\":1,\"bench\":\"node_rebuild\",\"nodes\":%u,"
        "\"policy\":\"%s\",\"child\":\"%s\","
        "\"blocks\":%zu,\"block_size\":%zu,\"node_blocks\":%zu,"
        "\"rebuild_mb_per_s\":%.1f,\"rounds\":%u,\"wall_s\":%.4f,"
        "\"reps\":%d,\"lost\":%llu,\"hw_cores\":%u,\"ok\":%s}\n",
        nodes, policy, child, blocks, block_size, first.node_blocks,
        rebuilt_mb / wall, first.rounds, wall, reps,
        static_cast<unsigned long long>(first.lost),
        std::thread::hardware_concurrency(), ok ? "true" : "false");
  } else {
    std::printf("%-8u %-8s %-6s %12zu %10.1f %8u %10.4f %5d %6llu%s\n",
                nodes, policy, child, first.node_blocks, rebuilt_mb / wall,
                first.rounds, wall, reps,
                static_cast<unsigned long long>(first.lost),
                ok ? "" : "  [BYTE MISMATCH]");
  }
  return ok;
}

int run(std::uint64_t blocks, std::size_t block_size, bool json) {
  const fs::path base =
      fs::temp_directory_path() /
      ("aec_bench_node_rebuild_" + std::to_string(::getpid()));
  fs::remove_all(base);

  if (!json) {
    std::printf(
        "node rebuild — AE(3,2,5), %llu data blocks, %zu B blocks\n",
        static_cast<unsigned long long>(blocks), block_size);
    std::printf("%-8s %-8s %-6s %12s %10s %8s %10s %5s %6s\n", "nodes",
                "policy", "child", "node blocks", "MB/s", "rounds", "wall s",
                "reps", "lost");
  }

  Rng rng(4242);
  Bytes content;
  content.reserve(blocks * block_size);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const Bytes block = rng.random_block(block_size);
    content.insert(content.end(), block.begin(), block.end());
  }

  bool all_ok = true;
  int phase_index = 0;
  for (const std::uint32_t nodes : {2u, 4u, 8u}) {
    for (const char* policy : {"rr", "strand", "random"}) {
      for (const char* child : {"file", "mem"}) {
        const fs::path root =
            base / ("phase_" + std::to_string(phase_index++));
        all_ok = run_phase(root, nodes, policy, child, content, block_size,
                           json) &&
                 all_ok;
        fs::remove_all(root);
      }
    }
  }
  fs::remove_all(base);

  if (!all_ok) {
    std::printf("\nFAILED: a rebuilt block did not match its pre-failure "
                "bytes (or losses disagree with the repair residue)\n");
    return 1;
  }
  if (!json)
    std::printf("\nself-check OK: every re-materialized block "
                "byte-identical; losses (if any) match the residue\n");
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
  const std::uint64_t blocks =
      positional.size() > 0
          ? std::strtoull(positional[0].c_str(), nullptr, 10)
          : 2000;
  const std::size_t block_size =
      positional.size() > 1
          ? std::strtoull(positional[1].c_str(), nullptr, 10)
          : 4096;
  return run(blocks, block_size, json);
}
