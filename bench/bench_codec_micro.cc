// Codec micro-benchmarks (google-benchmark): the XOR engine, AE encoding
// and single-failure repair across α, and the Reed-Solomon baseline.
//
// The paper's performance story is architectural (2-block repairs, O(1)
// strand-head memory); these numbers ground it in bytes/second.
//
//   bench_codec_micro --json
//     skips google-benchmark and instead emits one JSON row per
//     (kernel variant × op) — xor3 (dst = a ^ b into a third buffer,
//     the library's one XOR kernel) / gf_mul / gf_axpy throughput with
//     a byte-identity check against the scalar reference. The 16 KiB rows
//     are L1-resident (compute-bound: the kernel speedup shows); the
//     1 MiB rows are memory-bound context. Each row is the best of
//     `reps` trials, run round-robin across the rows. The perf-tracking
//     format (every row records hw_cores, the machine's hardware
//     threads); the committed snapshot lives in BENCH_codec.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/xor_engine.h"
#include "core/codec/tamper.h"
#include "gf/gf256.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/parallel_repairer.h"
#include "pipeline/thread_pool.h"
#include "rs/reed_solomon.h"

namespace {

using namespace aec;

// Naive byte-at-a-time XOR: the baseline the word-wide engine must beat
// (the custom main below asserts it does).
void xor_into_bytewise(Bytes& dst, BytesView src) {
  volatile std::uint8_t* d = dst.data();  // volatile defeats re-vectorization
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] = d[i] ^ src[i];
}

void BM_XorIntoByteLoop(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Bytes dst = rng.random_block(size);
  const Bytes src = rng.random_block(size);
  for (auto _ : state) {
    xor_into_bytewise(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_XorIntoByteLoop)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_XorInto(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Bytes dst = rng.random_block(size);
  const Bytes src = rng.random_block(size);
  for (auto _ : state) {
    xor_into(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_XorInto)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// dst = a ^ b into a third buffer: how the encoder writes each parity
// and the repairer each repair output.
void BM_Xor3(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Bytes dst(size);
  const Bytes a = rng.random_block(size);
  const Bytes b = rng.random_block(size);
  for (auto _ : state) {
    xor3(dst, a, b);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Xor3)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_AeEncode(benchmark::State& state) {
  const auto alpha = static_cast<std::uint32_t>(state.range(0));
  const std::size_t block_size = 4096;
  const CodeParams params = alpha == 1 ? CodeParams::single()
                                       : CodeParams(alpha, 2, 5);
  Rng rng(2);
  const std::vector<Bytes> block{rng.random_block(block_size)};
  pipeline::ConcurrentBlockStore store;
  pipeline::ThreadPool pool(1);
  pipeline::ParallelEncoder encoder(params, block_size, &store, &pool);
  for (auto _ : state) {
    encoder.append_all(block);  // one block per batch, one worker
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block_size));
  state.SetLabel(params.name());
}
BENCHMARK(BM_AeEncode)->Arg(1)->Arg(2)->Arg(3);

void BM_AeSingleFailureRepair(benchmark::State& state) {
  const auto alpha = static_cast<std::uint32_t>(state.range(0));
  const std::size_t block_size = 4096;
  const CodeParams params = alpha == 1 ? CodeParams::single()
                                       : CodeParams(alpha, 2, 5);
  Rng rng(3);
  pipeline::ConcurrentBlockStore store;
  pipeline::ThreadPool pool(1);
  const std::uint64_t n = 256;
  {
    std::vector<Bytes> blocks;
    for (std::uint64_t i = 0; i < n; ++i)
      blocks.push_back(rng.random_block(block_size));
    pipeline::ParallelEncoder encoder(params, block_size, &store, &pool);
    encoder.append_all(blocks);
  }
  pipeline::ParallelRepairer repairer(params, n, block_size, &store, &pool);
  NodeIndex victim = 100;
  for (auto _ : state) {
    store.erase(BlockKey::data(victim));
    auto repaired = repairer.read_node(victim);
    benchmark::DoNotOptimize(repaired);
    victim = victim % 200 + 20;  // wander around the lattice interior
  }
  // A single-failure repair always XORs exactly two blocks (paper).
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * block_size));
  state.SetLabel(params.name());
}
BENCHMARK(BM_AeSingleFailureRepair)->Arg(1)->Arg(2)->Arg(3);

void BM_RsEncode(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto m = static_cast<std::uint32_t>(state.range(1));
  const std::size_t block_size = 4096;
  const rs::ReedSolomon code(k, m);
  Rng rng(4);
  std::vector<Bytes> data;
  for (std::uint32_t i = 0; i < k; ++i)
    data.push_back(rng.random_block(block_size));
  for (auto _ : state) {
    auto parities = code.encode(data);
    benchmark::DoNotOptimize(parities.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * block_size));
  state.SetLabel(code.name());
}
BENCHMARK(BM_RsEncode)
    ->Args({10, 4})
    ->Args({8, 2})
    ->Args({5, 5})
    ->Args({4, 12});

void BM_RsSingleFailureRepair(benchmark::State& state) {
  // RS repairs one lost block by decoding the whole stripe from k reads —
  // the bandwidth cost AE's 2-block repairs avoid.
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto m = static_cast<std::uint32_t>(state.range(1));
  const std::size_t block_size = 4096;
  const rs::ReedSolomon code(k, m);
  Rng rng(5);
  std::vector<Bytes> data;
  for (std::uint32_t i = 0; i < k; ++i)
    data.push_back(rng.random_block(block_size));
  const auto parity = code.encode(data);
  std::vector<std::optional<Bytes>> stripe;
  for (const auto& b : data) stripe.emplace_back(b);
  for (const auto& b : parity) stripe.emplace_back(b);
  stripe[k / 2].reset();  // one missing data block
  for (auto _ : state) {
    auto decoded = code.decode(stripe);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * block_size));
  state.SetLabel(code.name());
}
BENCHMARK(BM_RsSingleFailureRepair)->Args({10, 4})->Args({4, 12});

void BM_TamperScan(benchmark::State& state) {
  const std::size_t block_size = 1024;
  const CodeParams params(3, 2, 5);
  Rng rng(6);
  pipeline::ConcurrentBlockStore store;
  const std::uint64_t n = 500;
  std::vector<Bytes> blocks;
  for (std::uint64_t i = 0; i < n; ++i)
    blocks.push_back(rng.random_block(block_size));
  pipeline::ThreadPool pool(1);
  pipeline::ParallelEncoder encoder(params, block_size, &store, &pool);
  encoder.append_all(blocks);
  const Lattice lattice = encoder.lattice();
  for (auto _ : state) {
    auto scan = scan_for_tampering(store, lattice, block_size);
    benchmark::DoNotOptimize(scan.inconsistent_parities.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TamperScan);

// Quick self-check: the word-wide engine must beat the byte loop on a
// 1 MiB block (run before the registered benchmarks so a regression in
// xor_into is loud even when nobody reads the full table).
double measure_xor_speedup() {
  constexpr std::size_t kSize = 1 << 20;
  constexpr int kReps = 64;
  Rng rng(42);
  Bytes dst = rng.random_block(kSize);
  const Bytes src = rng.random_block(kSize);
  const auto time_loop = [&](auto&& fn) {
    fn();  // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double wide = time_loop([&] { xor_into(dst, src); });
  const double bytewise = time_loop([&] { xor_into_bytewise(dst, src); });
  return bytewise / wide;
}

// --- per-kernel JSON mode ---------------------------------------------------

/// One (op × kernel variant × buffer size) row of the JSON mode.
struct KernelRow {
  const char* op;      // "xor3" | "gf_mul" | "gf_axpy"
  const char* kernel;  // variant name
  std::size_t buf_bytes;
  bool identical;  // byte-identity vs the scalar reference
  /// Runs the variant `calls` times on the row's own buffers.
  std::function<void(int calls)> run;
  int calls_per_trial;
  double best_seconds = 1e100;  // fastest trial so far

  double mb_per_s() const {
    return static_cast<double>(buf_bytes) * calls_per_trial /
           (1024.0 * 1024.0) / best_seconds;
  }
};

/// The destination, source and extra source of a row, filled from
/// `seed` and cut from one arena of 3n + 4 KiB bytes: each starts on a
/// cache line, and any two lie at least 1 KiB apart modulo the 4 KiB
/// page, so no load shares a page offset with a recent store. A row's
/// rate then does not hang on where malloc put its buffers: with the
/// destination 16 bytes off the source's alignment, the AVX2 xor3
/// 16 KiB row read 45 GB/s against 55 GB/s aligned.
class RowBuffers {
 public:
  RowBuffers(std::size_t n, std::uint64_t seed) : n_(n), arena_(3 * n + 4096) {
    Rng rng(seed);
    for (std::uint8_t* buffer : {dst(), src(), aux()}) {
      const Bytes fill = rng.random_block(n_);
      std::copy(fill.begin(), fill.end(), buffer);
    }
  }

  std::uint8_t* src() {
    return arena_.data() +
           (-reinterpret_cast<std::uintptr_t>(arena_.data()) & 63);
  }
  std::uint8_t* dst() { return src() + n_ + 2048; }
  std::uint8_t* aux() { return src() + 2 * n_ + 3072; }

 private:
  std::size_t n_;
  Bytes arena_;
};

/// The row of one variant: `apply(dst, src, aux, n)` runs it;
/// `reference` is the scalar baseline for the identity check (run on
/// identical inputs). A trial is 64 MiB of calls.
template <typename Apply, typename Ref>
KernelRow make_kernel_row(const char* op, const char* kernel,
                          std::size_t buf_bytes, Apply apply,
                          Ref&& reference) {
  const std::uint64_t seed =
      97 + buf_bytes + static_cast<std::uint64_t>(op[0]);
  RowBuffers got(buf_bytes, seed), want(buf_bytes, seed);
  apply(got.dst(), got.src(), got.aux(), buf_bytes);
  reference(want.dst(), want.src(), want.aux(), buf_bytes);
  const bool identical =
      std::equal(got.dst(), got.dst() + buf_bytes, want.dst());

  return {op, kernel, buf_bytes, identical,
          [apply, buffers = RowBuffers(buf_bytes, seed),
           buf_bytes](int calls) mutable {
            for (int c = 0; c < calls; ++c)
              apply(buffers.dst(), buffers.src(), buffers.aux(), buf_bytes);
          },
          static_cast<int>((std::size_t{64} << 20) / buf_bytes)};
}

/// Trials per row. They run round-robin: trial t of every row before
/// trial t + 1 of any, so a slow spell of the host lands on one trial of
/// many rows rather than on every trial of one; a row reports its best.
constexpr int kTrials = 9;

int run_kernel_json() {
  // 16 KiB: L1-resident, compute-bound — the row the ≥4× SIMD-speedup
  // acceptance gate reads. 1 MiB: memory-bound context.
  constexpr std::size_t kSizes[] = {16 * 1024, 1 << 20};
  constexpr gf::Elem kCoeff = 0x57;  // generic (not 0/1/2 special cases)
  bool all_identical = true;

  std::vector<KernelRow> rows;
  const auto xor_kernels = available_xor_kernels();
  const auto gf_kernels = gf::available_gf_kernels();
  using Ptr = std::uint8_t*;
  using CPtr = const std::uint8_t*;
  for (const std::size_t size : kSizes) {
    // xor3 reads the extra source and the source and writes the
    // destination over: three streams per byte.
    for (const auto& k : xor_kernels)
      rows.push_back(make_kernel_row(
          "xor3", k.name, size,
          [k](Ptr d, CPtr s, CPtr a, std::size_t n) { k.xor3(d, a, s, n); },
          [&](Ptr d, CPtr s, CPtr a, std::size_t n) {
            xor_kernels.front().xor3(d, a, s, n);
          }));
    for (const auto& k : gf_kernels) {
      rows.push_back(make_kernel_row(
          "gf_mul", k.name, size,
          [k](Ptr d, CPtr s, CPtr, std::size_t n) {
            k.mul_slice(d, s, n, kCoeff);
          },
          [&](Ptr d, CPtr s, CPtr, std::size_t n) {
            gf_kernels.front().mul_slice(d, s, n, kCoeff);
          }));
      rows.push_back(make_kernel_row(
          "gf_axpy", k.name, size,
          [k](Ptr d, CPtr s, CPtr, std::size_t n) {
            k.axpy_slice(d, s, n, kCoeff);
          },
          [&](Ptr d, CPtr s, CPtr, std::size_t n) {
            gf_kernels.front().axpy_slice(d, s, n, kCoeff);
          }));
    }
  }

  for (KernelRow& row : rows) row.run(1);  // warm-up (faults pages, tables)
  for (int t = 0; t < kTrials; ++t)
    for (KernelRow& row : rows) {
      const auto start = std::chrono::steady_clock::now();
      row.run(row.calls_per_trial);
      row.best_seconds = std::min(
          row.best_seconds, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }

  // Scalar baseline per (op, size) for the speedup column.
  const auto scalar_mb_per_s = [&](const KernelRow& row) {
    for (const KernelRow& s : rows)
      if (std::strcmp(s.kernel, "scalar") == 0 &&
          std::strcmp(s.op, row.op) == 0 && s.buf_bytes == row.buf_bytes)
        return s.mb_per_s();
    return row.mb_per_s();
  };
  for (const KernelRow& row : rows) {
    all_identical = all_identical && row.identical;
    std::printf(
        "{\"schema_version\":1,\"bench\":\"codec_micro\",\"phase\":"
        "\"%s %s %zuK\",\"op\":\"%s\",\"kernel\":\"%s\",\"buf_bytes\":%zu,"
        "\"mb_per_s\":%.1f,\"speedup_vs_scalar\":%.2f,\"selected\":\"%s\","
        "\"reps\":%d,\"hw_cores\":%u,\"ok\":%s}\n",
        row.op, row.kernel, row.buf_bytes / 1024, row.op, row.kernel,
        row.buf_bytes, row.mb_per_s(), row.mb_per_s() / scalar_mb_per_s(row),
        selected_kernel_name(), kTrials, std::thread::hardware_concurrency(),
        row.identical ? "true" : "false");
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAILED: a kernel variant diverged from the scalar "
                 "reference\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return run_kernel_json();

  const double speedup = measure_xor_speedup();
  std::fprintf(stderr, "xor_into word-wide speedup over byte loop: %.1fx\n",
               speedup);
  if (speedup < 1.0)
    std::fprintf(stderr,
                 "WARNING: word-wide xor_into slower than the byte loop — "
                 "engine regression?\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
