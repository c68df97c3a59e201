// Repair throughput: the wave-parallel ParallelRepairer at 1/2/4/8
// threads, for random and burst erasures (paper §V: rounds are the
// serial dependency; within a round every repair is an independent XOR
// of two available blocks).
//
// Two backend sections:
//   · in-memory ConcurrentBlockStore (pure compute scaling);
//   · file-backed — FileBlockStore's flat `file` layout (the single
//     mutex every worker fights for) vs its sharded(8) layout
//     (per-shard mutexes + batched wave I/O), which is where sharding
//     shows up at > 1 thread.
//
// Prints repaired MB/s, the round count, and the speedup over the
// backend's own one-thread row (the serial case). Before reporting, every
// repaired store is checked against the pristine lattice — each block
// present is the original, exactly the reported residue is missing — and
// every multi-thread run must report the same rounds and counts as the
// one-thread run. Scaling is bounded by min(per-round width, threads,
// cores), so read the speedups against the machine's hardware threads
// (printed first; hw_cores in every JSON row).
//
//   bench_repair_throughput [blocks] [block_size] [--json]
//   (default 20000 4096; --json emits one JSON object per measurement
//   and suppresses the tables — the cross-PR perf-tracking format; its
//   `speedup` is likewise relative to the backend's t=1 row)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/parallel_repairer.h"

namespace {

using namespace aec;
using Clock = std::chrono::steady_clock;

namespace fs = std::filesystem;

bool g_json = false;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void print_json(const std::string& params, const char* pattern,
                const char* backend, std::size_t threads, double mb_per_s,
                double speedup, std::uint32_t rounds, bool identical) {
  std::printf(
      "{\"schema_version\":1,\"bench\":\"repair_throughput\",\"params\":\"%s\","
      "\"pattern\":\"%s\",\"backend\":\"%s\",\"threads\":%zu,"
      "\"mb_per_s\":%.1f,\"speedup\":%.3f,\"rounds\":%u,"
      "\"hw_cores\":%u,\"identical\":%s}\n",
      params.c_str(), pattern, backend, threads, mb_per_s, speedup, rounds,
      std::thread::hardware_concurrency(), identical ? "true" : "false");
}

struct ErasurePattern {
  const char* name;
  // Applies the pattern; returns the number of erased blocks.
  std::uint64_t (*apply)(const Lattice& lat, BlockStore& store);
};

std::uint64_t erase_random_15(const Lattice& lat, BlockStore& store) {
  Rng rng(7);
  std::uint64_t erased = 0;
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    if (rng.bernoulli(0.15) && store.erase(BlockKey::data(i))) ++erased;
    for (StrandClass cls : lat.params().classes())
      if (rng.bernoulli(0.15) &&
          store.erase(BlockKey::parity(lat.output_edge(i, cls))))
        ++erased;
  }
  return erased;
}

std::uint64_t erase_burst(const Lattice& lat, BlockStore& store) {
  // A contiguous 10 % failure domain losing its data and horizontal
  // parities: round 1 regenerates all the data in one wide wave through
  // the surviving helical strands; the horizontal-parity run then unzips
  // from both ends, a few blocks per round — the long narrow cascade
  // that stresses per-wave dispatch overhead.
  const auto n = static_cast<NodeIndex>(lat.n_nodes());
  const NodeIndex first = n * 45 / 100 + 1;
  const NodeIndex last = n * 55 / 100;
  std::uint64_t erased = 0;
  for (NodeIndex i = first; i <= last; ++i) {
    if (store.erase(BlockKey::data(i))) ++erased;
    if (store.erase(BlockKey::parity(
            lat.output_edge(i, StrandClass::kHorizontal))))
      ++erased;
  }
  return erased;
}

const ErasurePattern kPatterns[] = {
    {"random 15%", &erase_random_15},
    {"burst 10%", &erase_burst},
};

/// Ground truth for a repaired store: every block still present is the
/// pristine block, and exactly the report's residue is missing.
bool matches_pristine(const InMemoryBlockStore& pristine,
                      const BlockStore& store, const RepairReport& report) {
  std::uint64_t missing = 0;
  bool ok = true;
  pristine.for_each([&](const BlockKey& key, const Bytes& value) {
    const auto copy = store.get_copy(key);
    if (!copy)
      ++missing;
    else if (*copy != value)
      ok = false;
  });
  return ok && store.size() == pristine.size() - missing &&
         missing == report.nodes_unrecovered + report.edges_unrecovered;
}

bool same_report(const RepairReport& a, const RepairReport& b) {
  return a.rounds == b.rounds &&
         a.nodes_repaired_per_round == b.nodes_repaired_per_round &&
         a.edges_repaired_per_round == b.edges_repaired_per_round &&
         a.nodes_unrecovered == b.nodes_unrecovered &&
         a.edges_unrecovered == b.edges_unrecovered;
}

InMemoryBlockStore encode_pristine(const CodeParams& params,
                                   std::size_t count,
                                   std::size_t block_size) {
  Rng rng(2026);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(block_size));
  InMemoryBlockStore pristine;
  pipeline::ThreadPool pool(1);
  pipeline::ParallelEncoder encoder(params, block_size, &pristine, &pool);
  encoder.append_all(blocks);
  return pristine;
}

void fill_from(const InMemoryBlockStore& pristine, BlockStore& store) {
  // Batched copy-in: the cheap path on sharded/file backends.
  constexpr std::size_t kBatch = 256;
  std::vector<std::pair<BlockKey, Bytes>> batch;
  batch.reserve(kBatch);
  pristine.for_each([&](const BlockKey& key, const Bytes& value) {
    batch.emplace_back(key, value);
    if (batch.size() >= kBatch) {
      store.put_batch(std::move(batch));
      batch.clear();
    }
  });
  if (!batch.empty()) store.put_batch(std::move(batch));
}

/// Builds the empty store of one measurement (called once per thread
/// count, after the previous measurement's store is gone).
using StoreFactory = std::function<std::unique_ptr<BlockStore>()>;

/// One backend × pattern: a fresh damaged copy of `pristine` per thread
/// count, repaired and checked; the one-thread row is the baseline.
void measure(const CodeParams& params, std::size_t count,
             std::size_t block_size, const InMemoryBlockStore& pristine,
             const ErasurePattern& pattern, const char* backend,
             const StoreFactory& make_store) {
  const Lattice lat(params, count, Lattice::Boundary::kOpen);
  RepairReport baseline;
  double baseline_wall = 0.0;
  double repaired_mb = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const std::unique_ptr<BlockStore> store = make_store();
    fill_from(pristine, *store);
    const std::uint64_t erased = pattern.apply(lat, *store);
    store->drop_payload_cache();

    pipeline::ThreadPool pool(threads);
    pipeline::ParallelRepairer repairer(params, count, block_size,
                                        store.get(), &pool);
    const auto start = Clock::now();
    const RepairReport report = repairer.repair_all();
    const double wall = seconds_since(start);
    const bool correct = matches_pristine(pristine, *store, report) &&
                         (threads == 1 || same_report(report, baseline));
    if (threads == 1) {
      baseline = report;
      baseline_wall = wall;
      repaired_mb =
          static_cast<double>(report.blocks_repaired_total() * block_size) /
          (1024.0 * 1024.0);
      if (!g_json)
        std::printf("\n%s — %s, %s: %llu erased, %llu repaired (%.1f MiB), "
                    "%u round(s), %llu unrecovered\n",
                    params.name().c_str(), pattern.name, backend,
                    static_cast<unsigned long long>(erased),
                    static_cast<unsigned long long>(
                        report.blocks_repaired_total()),
                    repaired_mb, report.rounds,
                    static_cast<unsigned long long>(
                        report.nodes_unrecovered + report.edges_unrecovered));
    }
    if (g_json) {
      print_json(params.name(), pattern.name, backend, threads,
                 repaired_mb / wall, baseline_wall / wall, report.rounds,
                 correct);
    } else {
      std::printf("  %-22s ×%zu thread%s %8.1f MB/s   %5.2fx  %s\n", backend,
                  threads, threads == 1 ? " " : "s", repaired_mb / wall,
                  baseline_wall / wall, correct ? "correct" : "MISMATCH!");
    }
    if (!correct) std::exit(1);
  }
}

void run_memory(const CodeParams& params, std::size_t count,
                std::size_t block_size) {
  const InMemoryBlockStore pristine =
      encode_pristine(params, count, block_size);
  for (const ErasurePattern& pattern : kPatterns)
    measure(params, count, block_size, pristine, pattern, "mem-concurrent",
            [] { return std::make_unique<pipeline::ConcurrentBlockStore>(); });
}

void run_file_backed(const CodeParams& params, std::size_t count,
                     std::size_t block_size) {
  const InMemoryBlockStore pristine =
      encode_pristine(params, count, block_size);
  const fs::path root = fs::temp_directory_path() /
                        ("aec_bench_repair_" + std::to_string(::getpid()));
  for (const ErasurePattern& pattern : kPatterns) {
    for (const bool sharded : {false, true}) {
      // One configuration's files on disk at a time.
      measure(params, count, block_size, pristine, pattern,
              sharded ? "sharded-file(8)" : "file",
              [&]() -> std::unique_ptr<BlockStore> {
                fs::remove_all(root);
                if (sharded) return std::make_unique<FileBlockStore>(root, 8);
                return std::make_unique<FileBlockStore>(root);
              });
    }
  }
  fs::remove_all(root);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      g_json = true;
    else
      positional.emplace_back(argv[i]);
  }
  const std::size_t count =
      positional.size() > 0
          ? static_cast<std::size_t>(
                std::strtoull(positional[0].c_str(), nullptr, 10))
          : 20000;
  const std::size_t block_size =
      positional.size() > 1
          ? static_cast<std::size_t>(
                std::strtoull(positional[1].c_str(), nullptr, 10))
          : 4096;
  if (!g_json)
    std::printf("hardware threads: %u\n",
                std::thread::hardware_concurrency());

  // Per-round width bounds the usable parallelism: the round-1 wave of a
  // random disaster is huge (most failures are single failures, Fig 13),
  // so repair scales further than the write path's s-bounded waves.
  run_memory(CodeParams(3, 2, 5), count, block_size);
  run_memory(CodeParams(3, 5, 5), count, block_size);

  // File-backed section capped: each config materializes (1+α)·count
  // block files, so the default run stays disk-friendly.
  run_file_backed(CodeParams(3, 2, 5), std::min<std::size_t>(count, 4000),
                  block_size);
  return 0;
}
