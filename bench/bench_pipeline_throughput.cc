// Entanglement pipeline throughput: the strand-scheduled ParallelEncoder
// at 1/2/4/8 threads (paper §V-B partial writes — one task walks one
// strand instance across the whole batch, so a batch has s + (α−1)·p
// independent XOR chains).
//
// Prints MB/s of ingested data and the speedup over the one-thread row
// (the serial case), one row per thread count. Before reporting, the
// one-thread store is checked against the ground truth — every data
// block equals its input and every parity satisfies p_{i,j} = d_i XOR
// p_{h,i} — and every other store must be byte-identical to it (a wrong
// fast encoder is worthless). Scaling is bounded by min(strands, threads,
// cores), so read the speedups against the "hardware threads" line the
// run prints first.
//
//   bench_pipeline_throughput [blocks] [block_size]   (default 20000 4096)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.h"
#include "core/codec/tamper.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"

namespace {

using namespace aec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Bytes> make_blocks(std::size_t count, std::size_t block_size) {
  Rng rng(2024);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(block_size));
  return blocks;
}

bool stores_match(const pipeline::ConcurrentBlockStore& expected,
                  const pipeline::ConcurrentBlockStore& actual) {
  if (expected.size() != actual.size()) return false;
  bool ok = true;
  expected.for_each([&](const BlockKey& key, BytesView value) {
    const Block copy = actual.get_block(key);
    if (!(copy == value)) ok = false;
  });
  return ok;
}

/// Ground truth without a second encoder: the data blocks are the input,
/// nothing else is stored beyond the α parities per block, and no parity
/// breaks the entanglement equation (which, from the strand bootstrap
/// on, fixes every parity byte).
bool matches_ground_truth(const CodeParams& params,
                          const std::vector<Bytes>& blocks,
                          std::size_t block_size,
                          const pipeline::ConcurrentBlockStore& store) {
  if (store.size() != blocks.size() * (1 + params.alpha())) return false;
  for (std::size_t j = 0; j < blocks.size(); ++j)
    if (store.get_copy(BlockKey::data(static_cast<NodeIndex>(j + 1))) !=
        blocks[j])
      return false;
  const Lattice lattice(params, blocks.size(), Lattice::Boundary::kOpen);
  const TamperScanResult scan =
      scan_for_tampering(store, lattice, block_size);
  return scan.inconsistent_parities.empty() && scan.suspect_nodes.empty();
}

void run(const CodeParams& params, const std::vector<Bytes>& blocks,
         std::size_t block_size) {
  const double mb = static_cast<double>(blocks.size() * block_size) /
                    (1024.0 * 1024.0);
  std::printf("\n%s — %zu blocks × %zu B (%.1f MiB)\n", params.name().c_str(),
              blocks.size(), block_size, mb);

  pipeline::ConcurrentBlockStore baseline;
  double baseline_time = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    pipeline::ThreadPool pool(threads);
    pipeline::ConcurrentBlockStore scratch;
    pipeline::ConcurrentBlockStore& store =
        threads == 1 ? baseline : scratch;
    pipeline::ParallelEncoder encoder(params, block_size, &store, &pool);
    const auto start = Clock::now();
    encoder.append_all(blocks);
    const double time = seconds_since(start);
    const bool correct =
        threads == 1 ? matches_ground_truth(params, blocks, block_size, store)
                     : stores_match(baseline, store);
    if (threads == 1) baseline_time = time;
    std::printf("  encoder × %zu thread%s    %8.1f MB/s   %5.2fx  %s\n",
                threads, threads == 1 ? " " : "s", mb / time,
                baseline_time / time, correct ? "correct" : "MISMATCH!");
    if (!correct) std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t count =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 20000;
  const std::size_t block_size =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 4096;
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  const auto blocks = make_blocks(count, block_size);
  // The strand count bounds the parallelism: AE(3,2,5) has 12 strand
  // instances, AE(3,5,5) 15 (the paper's s = p full-write optimum).
  run(CodeParams(3, 2, 5), blocks, block_size);
  run(CodeParams(3, 5, 5), blocks, block_size);
  return 0;
}
