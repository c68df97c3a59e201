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
//     1 MiB rows are memory-bound context. The cross-PR perf-tracking
//     format (every row records hw_cores, the machine's hardware
//     threads); the committed snapshot lives in BENCH_codec.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
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

/// Best-of-`kTrials` wall time of `reps` calls to `fn` — the minimum is
/// the least-noise estimator on a shared box.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  constexpr int kTrials = 5;
  double best = 1e100;
  fn();  // warm-up (also faults pages / builds tables)
  for (int t = 0; t < kTrials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (s < best) best = s;
  }
  return best;
}

struct KernelRow {
  const char* op;      // "xor3" | "gf_mul" | "gf_axpy"
  const char* kernel;  // variant name
  std::size_t buf_bytes;
  double mb_per_s;
  bool identical;  // byte-identity vs the scalar reference
};

/// One variant's throughput + identity row. `apply(dst, src, n)` runs
/// the variant; `reference` is the scalar baseline for the identity
/// check (run on identical inputs).
template <typename Apply, typename Ref>
KernelRow measure_kernel(const char* op, const char* kernel,
                         std::size_t buf_bytes, Apply&& apply,
                         Ref&& reference) {
  Rng rng(97 + buf_bytes + static_cast<std::uint64_t>(op[0]));
  const Bytes src = rng.random_block(buf_bytes);
  const Bytes dst0 = rng.random_block(buf_bytes);

  Bytes got(dst0), want(dst0);
  apply(got.data(), src.data(), buf_bytes);
  reference(want.data(), src.data(), buf_bytes);
  const bool identical = got == want;

  Bytes dst(dst0);
  const int reps = static_cast<int>((std::size_t{64} << 20) / buf_bytes);
  const double secs =
      best_seconds(reps, [&] { apply(dst.data(), src.data(), buf_bytes); });
  const double mb_per_s = static_cast<double>(buf_bytes) * reps /
                          (1024.0 * 1024.0) / secs;
  return {op, kernel, buf_bytes, mb_per_s, identical};
}

int run_kernel_json() {
  // 16 KiB: L1-resident, compute-bound — the row the ≥4× SIMD-speedup
  // acceptance gate reads. 1 MiB: memory-bound context.
  constexpr std::size_t kSizes[] = {16 * 1024, 1 << 20};
  constexpr gf::Elem kCoeff = 0x57;  // generic (not 0/1/2 special cases)
  bool all_identical = true;

  std::vector<KernelRow> rows;
  const auto xor_kernels = available_xor_kernels();
  const auto gf_kernels = gf::available_gf_kernels();
  for (const std::size_t size : kSizes) {
    // xor3 reads `a` and the row's source and writes the destination
    // over: three streams per byte.
    const Bytes a = Rng(61 + size).random_block(size);
    for (const auto& k : xor_kernels)
      rows.push_back(measure_kernel(
          "xor3", k.name, size,
          [&](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            k.xor3(d, a.data(), s, n);
          },
          [&](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            xor_kernels.front().xor3(d, a.data(), s, n);
          }));
    for (const auto& k : gf_kernels) {
      rows.push_back(measure_kernel(
          "gf_mul", k.name, size,
          [&](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            k.mul_slice(d, s, n, kCoeff);
          },
          [&](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            gf_kernels.front().mul_slice(d, s, n, kCoeff);
          }));
      rows.push_back(measure_kernel(
          "gf_axpy", k.name, size,
          [&](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            k.axpy_slice(d, s, n, kCoeff);
          },
          [&](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            gf_kernels.front().axpy_slice(d, s, n, kCoeff);
          }));
    }
  }

  // Scalar baseline per (op, size) for the speedup column.
  const auto scalar_mb_per_s = [&](const KernelRow& row) {
    for (const KernelRow& s : rows)
      if (std::strcmp(s.kernel, "scalar") == 0 &&
          std::strcmp(s.op, row.op) == 0 && s.buf_bytes == row.buf_bytes)
        return s.mb_per_s;
    return row.mb_per_s;
  };
  for (const KernelRow& row : rows) {
    all_identical = all_identical && row.identical;
    std::printf(
        "{\"schema_version\":1,\"bench\":\"codec_micro\",\"phase\":"
        "\"%s %s %zuK\",\"op\":\"%s\",\"kernel\":\"%s\",\"buf_bytes\":%zu,"
        "\"mb_per_s\":%.1f,\"speedup_vs_scalar\":%.2f,\"selected\":\"%s\","
        "\"hw_cores\":%u,\"ok\":%s}\n",
        row.op, row.kernel, row.buf_bytes / 1024, row.op, row.kernel,
        row.buf_bytes, row.mb_per_s, row.mb_per_s / scalar_mb_per_s(row),
        selected_kernel_name(), std::thread::hardware_concurrency(),
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
