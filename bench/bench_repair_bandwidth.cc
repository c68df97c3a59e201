// Repair traffic per surviving node — the Dimakis-style result the
// paper never published (PAPERS.md: "Network Coding for Distributed
// Storage Systems" frames repair cost as bytes shipped by survivors,
// not wall clock).
//
// For each codec × placement on a 5-node cluster the bench fails one
// node, rebuilds it, and reads the cost straight off the cluster's
// per-node traffic counters: every byte a surviving node served during
// the rebuild is a byte that would have crossed the network from it.
// AE(3,2,5) repairs each lost block from 2 surviving blocks (one XOR),
// so its per-survivor traffic should sit far below RS(4,2), which
// re-reads every present part of each damaged stripe; REP(3) reads one
// replica per lost block — the lower bound, paid for with 3× storage.
// Placement decides the *spread*: strand staggers a block's parities
// across nodes (survivors share the load), rr concentrates reads on the
// neighbour-offset nodes.
//
// Self-check: after the final traffic snapshot the archived file is
// read back and byte-compared against the source — a cheap rebuild
// that produced wrong bytes is worthless. Reads done by verification
// happen after the measurement window, so they never pollute it.
// Irrecoverable phases are a *measurement*, not a failure: random
// placement can land more than m parts of one RS/REP stripe on the
// failed node and genuinely lose data (exactly the placement contrast
// this bench exists to show); the self-check only fails on wrong bytes,
// or on an unreadable file whose repair report claims zero residue.
//
//   bench_repair_bandwidth [blocks] [block_size] [--json]
//   (default 1000 4096; --json emits one JSON object per phase —
//   the cross-PR perf-tracking format; every row records hw_cores, the
//   machine's hardware threads)
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/rng.h"
#include "tools/archive.h"

namespace {

using namespace aec;
using namespace aec::tools;

namespace fs = std::filesystem;

constexpr std::uint32_t kNodes = 5;
constexpr std::uint32_t kVictim = 1;

int run(std::uint64_t blocks, std::size_t block_size, bool json) {
  const fs::path base =
      fs::temp_directory_path() /
      ("aec_bench_repair_bandwidth_" + std::to_string(::getpid()));
  fs::remove_all(base);

  if (!json) {
    std::printf(
        "repair bandwidth — %u-node cluster, fail node %u + rebuild, "
        "%llu data blocks x %zu B\n",
        kNodes, kVictim, static_cast<unsigned long long>(blocks),
        block_size);
    std::printf("%-10s %-8s %8s %12s %12s %12s %8s %6s\n", "codec",
                "policy", "lost", "survivor B", "avg B/node", "max B/node",
                "B/lost", "rounds");
  }

  bool all_ok = true;
  int phase_index = 0;
  for (const char* codec : {"AE(3,2,5)", "RS(4,2)", "REP(3)"}) {
    for (const char* policy : {"random", "rr", "strand"}) {
      const fs::path root = base / ("phase_" + std::to_string(phase_index++));
      const std::string store_spec =
          "cluster(" + std::to_string(kNodes) + "," + policy + ",file)";
      auto archive = Archive::create(root, codec, block_size, {}, store_spec);
      Rng rng(4242);
      Bytes content;
      content.reserve(blocks * block_size);
      for (std::uint64_t b = 0; b < blocks; ++b) {
        const Bytes block = rng.random_block(block_size);
        content.insert(content.end(), block.begin(), block.end());
      }
      archive->add_file("doc", content);

      // Measurement window: everything the rebuild routed through the
      // cluster, diffed against this baseline.
      const std::vector<cluster::NodeTraffic> before =
          archive->cluster()->traffic();
      const std::uint64_t lost =
          archive->cluster()->node_blocks(kVictim);
      archive->fail_node(kVictim);
      const RepairReport report = archive->rebuild_node(kVictim);
      const std::vector<cluster::NodeTraffic> after =
          archive->cluster()->traffic();

      // Survivor read deltas = repair traffic per surviving node. The
      // victim's writes are the re-materialized payload; its reads
      // (staged intermediates of cascaded repairs) are local, not
      // network traffic, and are reported separately.
      std::vector<std::uint64_t> survivor_bytes(kNodes, 0);
      std::uint64_t total = 0;
      std::uint64_t peak = 0;
      for (std::uint32_t k = 0; k < kNodes; ++k) {
        if (k == kVictim) continue;
        survivor_bytes[k] = after[k].bytes_read - before[k].bytes_read;
        total += survivor_bytes[k];
        peak = std::max(peak, survivor_bytes[k]);
      }
      const std::uint64_t victim_reads =
          after[kVictim].bytes_read - before[kVictim].bytes_read;
      const std::uint64_t victim_writes =
          after[kVictim].bytes_written - before[kVictim].bytes_written;
      const double avg = static_cast<double>(total) / (kNodes - 1);
      const double per_lost =
          lost ? static_cast<double>(total) / static_cast<double>(lost) : 0.0;

      // Verification reads happen after the final snapshot — they are
      // not part of the measurement.
      const auto restored = archive->read_file("doc");
      const bool recovered = restored.has_value() && *restored == content;
      const std::uint64_t residue =
          report.nodes_unrecovered + report.edges_unrecovered;
      // Wrong bytes are always a failure; an unreadable file is only
      // acceptable when the repair report owns up to residue.
      const bool ok = restored.has_value() ? *restored == content
                                           : residue > 0;
      all_ok = all_ok && ok;

      if (json) {
        std::string survivors;
        for (std::uint32_t k = 0; k < kNodes; ++k) {
          if (!survivors.empty()) survivors += ',';
          survivors += std::to_string(survivor_bytes[k]);
        }
        std::printf(
            "{\"schema_version\":1,\"bench\":\"repair_bandwidth\","
            "\"codec\":\"%s\",\"policy\":\"%s\",\"nodes\":%u,"
            "\"blocks\":%llu,\"block_size\":%zu,\"lost_blocks\":%llu,"
            "\"survivor_read_bytes\":[%s],\"survivor_bytes_total\":%llu,"
            "\"survivor_bytes_avg\":%.1f,\"survivor_bytes_max\":%llu,"
            "\"bytes_per_lost_block\":%.1f,\"victim_read_bytes\":%llu,"
            "\"victim_write_bytes\":%llu,\"rounds\":%u,\"recovered\":%s,"
            "\"hw_cores\":%u,\"ok\":%s}\n",
            codec, policy, kNodes, static_cast<unsigned long long>(blocks),
            block_size, static_cast<unsigned long long>(lost),
            survivors.c_str(), static_cast<unsigned long long>(total), avg,
            static_cast<unsigned long long>(peak), per_lost,
            static_cast<unsigned long long>(victim_reads),
            static_cast<unsigned long long>(victim_writes), report.rounds,
            recovered ? "true" : "false",
            std::thread::hardware_concurrency(), ok ? "true" : "false");
      } else {
        std::printf("%-10s %-8s %8llu %12llu %12.0f %12llu %8.0f %6u%s%s\n",
                    codec, policy, static_cast<unsigned long long>(lost),
                    static_cast<unsigned long long>(total), avg,
                    static_cast<unsigned long long>(peak), per_lost,
                    report.rounds, recovered ? "" : "  [data lost]",
                    ok ? "" : "  [BYTE MISMATCH]");
      }
      archive.reset();
      fs::remove_all(root);
    }
  }
  fs::remove_all(base);

  if (!all_ok) {
    std::printf(
        "\nFAILED: a rebuilt archive did not read back byte-identical\n");
    return 1;
  }
  if (!json)
    std::printf("\nself-check OK: every archive read back byte-identical "
                "after its rebuild\n");
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
          : 1000;
  const std::size_t block_size =
      positional.size() > 1
          ? std::strtoull(positional[1].c_str(), nullptr, 10)
          : 4096;
  return run(blocks, block_size, json);
}
