// Repair throughput: serial Decoder::repair_all vs the wave-parallel
// ParallelRepairer at 1/2/4/8 threads, for random and burst erasures
// (paper §V: rounds are the serial dependency; within a round every
// repair is an independent XOR of two available blocks).
//
// Two backend sections:
//   · in-memory ConcurrentBlockStore (pure compute scaling);
//   · file-backed — FileBlockStore's flat `file` layout (the single
//     mutex every worker fights for) vs its sharded(8) layout
//     (per-shard mutexes + batched wave I/O), which is where sharding
//     shows up at > 1 thread.
//
// Prints repaired MB/s, the round count, and the speedup over the serial
// baseline, and cross-checks that every parallel store is byte-identical
// to the serially repaired one (same repaired set, same residue) before
// reporting. Scaling is bounded by min(per-round width, threads, cores),
// so read the speedups against the machine's hardware threads (printed
// first; hw_cores in every JSON row).
//
//   bench_repair_throughput [blocks] [block_size] [--json]
//   (default 20000 4096; --json emits one JSON object per measurement
//   and suppresses the tables — the cross-PR perf-tracking format)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/rng.h"
#include "core/codec/decoder.h"
#include "core/codec/encoder.h"
#include "core/codec/file_block_store.h"
#include "pipeline/concurrent_block_store.h"
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

bool stores_match(const InMemoryBlockStore& expected,
                  const BlockStore& actual) {
  if (expected.size() != actual.size()) return false;
  bool ok = true;
  expected.for_each([&](const BlockKey& key, const Bytes& value) {
    const auto copy = actual.get_copy(key);
    if (!copy || *copy != value) ok = false;
  });
  return ok;
}

InMemoryBlockStore encode_pristine(const CodeParams& params,
                                   std::size_t count,
                                   std::size_t block_size) {
  InMemoryBlockStore pristine;
  Encoder enc(params, block_size, &pristine);
  Rng rng(2026);
  for (std::size_t i = 0; i < count; ++i)
    enc.append(rng.random_block(block_size));
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

/// Serial Decoder baseline over a private InMemory copy; also the
/// byte-identity oracle every parallel run is compared against.
struct SerialBaseline {
  InMemoryBlockStore repaired;
  RepairReport report;
  std::uint64_t erased = 0;
  double repaired_mb = 0.0;
};

SerialBaseline run_serial(const CodeParams& params, std::size_t count,
                          std::size_t block_size, const Lattice& lat,
                          const InMemoryBlockStore& pristine,
                          const ErasurePattern& pattern) {
  SerialBaseline base;
  pristine.for_each([&](const BlockKey& key, const Bytes& value) {
    base.repaired.put(key, value);
  });
  base.erased = pattern.apply(lat, base.repaired);
  Decoder dec(params, count, block_size, &base.repaired);
  base.report = dec.repair_all();
  base.repaired_mb =
      static_cast<double>(base.report.blocks_repaired_total() * block_size) /
      (1024.0 * 1024.0);
  return base;
}

void report_one(const CodeParams& params, const ErasurePattern& pattern,
                const SerialBaseline& base, const char* backend,
                std::size_t threads, double wall, bool identical,
                std::uint32_t rounds) {
  if (g_json) {
    print_json(params.name(), pattern.name, backend, threads,
               base.repaired_mb / wall, base.report.wall_seconds / wall,
               rounds, identical);
  } else {
    std::printf("  %-22s ×%zu thread%s %8.1f MB/s   %5.2fx  %s\n", backend,
                threads, threads == 1 ? " " : "s", base.repaired_mb / wall,
                base.report.wall_seconds / wall,
                identical ? "byte-identical" : "MISMATCH!");
  }
  if (!identical) std::exit(1);
}

void run_memory(const CodeParams& params, std::size_t count,
                std::size_t block_size) {
  const InMemoryBlockStore pristine =
      encode_pristine(params, count, block_size);
  const Lattice lat(params, count, Lattice::Boundary::kOpen);

  for (const ErasurePattern& pattern : kPatterns) {
    const SerialBaseline base =
        run_serial(params, count, block_size, lat, pristine, pattern);
    if (g_json) {
      print_json(params.name(), pattern.name, "serial-decoder", 1,
                 base.repaired_mb / base.report.wall_seconds, 1.0,
                 base.report.rounds, true);
    } else {
      std::printf("\n%s — %s: %llu erased, %llu repaired (%.1f MiB), "
                  "%u round(s), %llu unrecovered\n",
                  params.name().c_str(), pattern.name,
                  static_cast<unsigned long long>(base.erased),
                  static_cast<unsigned long long>(
                      base.report.blocks_repaired_total()),
                  base.repaired_mb, base.report.rounds,
                  static_cast<unsigned long long>(
                      base.report.nodes_unrecovered +
                      base.report.edges_unrecovered));
      std::printf("  %-32s %8.1f MB/s\n", "serial Decoder",
                  base.repaired_mb / base.report.wall_seconds);
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      pipeline::ConcurrentBlockStore store;
      fill_from(pristine, store);
      pattern.apply(lat, store);
      pipeline::ThreadPool pool(threads);
      pipeline::ParallelRepairer repairer(params, count, block_size,
                                          &store, &pool);
      const auto start = Clock::now();
      const RepairReport report = repairer.repair_all();
      const double wall = seconds_since(start);
      const bool identical = report.rounds == base.report.rounds &&
                             stores_match(base.repaired, store);
      report_one(params, pattern, base, "mem-concurrent", threads, wall,
                 identical, report.rounds);
    }
  }
}

void run_file_backed(const CodeParams& params, std::size_t count,
                     std::size_t block_size) {
  const InMemoryBlockStore pristine =
      encode_pristine(params, count, block_size);
  const Lattice lat(params, count, Lattice::Boundary::kOpen);
  const fs::path base_dir =
      fs::temp_directory_path() /
      ("aec_bench_repair_" + std::to_string(::getpid()));
  fs::remove_all(base_dir);

  for (const ErasurePattern& pattern : kPatterns) {
    const SerialBaseline base =
        run_serial(params, count, block_size, lat, pristine, pattern);
    if (!g_json)
      std::printf("\n%s — %s, file-backed (%zu blocks):\n",
                  params.name().c_str(), pattern.name, count);

    for (const bool sharded : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
        const fs::path root = base_dir / (std::string(pattern.name) + "_" +
                                          (sharded ? "sharded" : "file") +
                                          "_" + std::to_string(threads));
        auto store = sharded ? std::make_unique<FileBlockStore>(root, 8)
                             : std::make_unique<FileBlockStore>(root);
        fill_from(pristine, *store);
        pattern.apply(lat, *store);
        store->drop_payload_cache();

        pipeline::ThreadPool pool(threads);
        pipeline::ParallelRepairer repairer(params, count, block_size,
                                            store.get(), &pool);
        const auto start = Clock::now();
        const RepairReport report = repairer.repair_all();
        const double wall = seconds_since(start);
        const bool identical = report.rounds == base.report.rounds &&
                               stores_match(base.repaired, *store);
        report_one(params, pattern, base,
                   sharded ? "sharded-file(8)" : "file", threads, wall,
                   identical, report.rounds);
        store.reset();
        fs::remove_all(root);  // one config's files on disk at a time
      }
    }
  }
  fs::remove_all(base_dir);
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
