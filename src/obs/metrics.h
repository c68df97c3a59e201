// Process-wide metrics: named monotonic counters, gauges and fixed-bucket
// histograms behind a lock-cheap registry.
//
// Design (PAPERS.md: RapidRAID's per-stage visibility argument, Dimakis'
// repair-traffic accounting — both need always-on, near-free counters):
//   · the registry mutex is taken only at registration — components look
//     a metric up once (construction time) and keep the returned pointer,
//     which stays valid for the registry's lifetime;
//   · the hot path is a single relaxed fetch_add on an atomic — safe from
//     any thread, no lock, no allocation, cheap enough for per-batch (not
//     per-byte) accounting on the ingest/scrub/rebuild paths;
//   · snapshot() reads every atomic with relaxed loads and may therefore
//     observe a histogram mid-update (buckets, then count, then sum, so
//     the count trails the buckets by at most the observes in flight).
//     Snapshots are for reporting, not for invariants — after mutators
//     quiesce (every operation's completion group waited) a snapshot is
//     exact.
//
// Naming convention: "<subsystem>.<metric>[_<unit>]", e.g.
// "repair.wave_us", "store.sharded.cache_hits", "pool.queue_wait_us".
// The catalog lives in README § Observability.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aec::obs {

/// Monotonic counter (events, bytes). Relaxed atomic increments.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed level (queue depths, window sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer samples (latencies in
/// µs, batch sizes in blocks). Buckets are cumulative-style upper bounds
/// (value ≤ bound), ascending, with an implicit +inf overflow bucket; the
/// bounds are fixed at registration so observe() is one linear scan over
/// a handful of bounds plus two relaxed fetch_adds.
class Histogram {
 public:
  /// Sentinel upper bound of the overflow bucket in snapshots.
  static constexpr std::uint64_t kInf = ~std::uint64_t{0};

  /// `upper_bounds` must be non-empty, strictly ascending.
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  void observe(std::uint64_t value) noexcept {
    std::size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Bucket i counts samples in (bounds[i-1], bounds[i]];
  /// i == upper_bounds().size() is the +inf overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<std::uint64_t>& upper_bounds() const noexcept {
    return bounds_;
  }

  /// `count` bounds starting at `start`, each ×`factor` (latency/size
  /// scales: exponential_bounds(1, 4, 12) spans 1 µs … ~4 s).
  static std::vector<std::uint64_t> exponential_bounds(std::uint64_t start,
                                                       std::uint64_t factor,
                                                       std::size_t count);
  /// The registry-wide default for microsecond latencies: 1 µs … ~16 s.
  static std::vector<std::uint64_t> latency_bounds_us();
  /// Default for batch/wave sizes in blocks: 1 … 64 Ki.
  static std::vector<std::uint64_t> size_bounds();

 private:
  std::vector<std::uint64_t> bounds_;
  /// bounds_.size() + 1 slots (last = overflow). Heap array because
  /// atomics are immovable.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One metric row of a snapshot (flattened, type-tagged).
struct MetricRow {
  enum class Type { kCounter, kGauge, kHistogram };
  std::string name;
  Type type = Type::kCounter;
  std::uint64_t value = 0;  // counter
  std::int64_t level = 0;   // gauge
  std::uint64_t count = 0;  // histogram samples
  std::uint64_t sum = 0;    // histogram sample sum
  /// (upper bound, count) per bucket; bound kInf = overflow.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// Derived quantile estimate for histogram rows (q in [0, 1]): linear
  /// interpolation inside the bucket holding the q-th sample, clamped to
  /// the overflow bucket's lower bound (the last finite upper bound)
  /// when the sample lands there. 0 when the histogram is empty.
  double quantile(double q) const;
};

/// Point-in-time registry dump, name-sorted.
struct MetricsSnapshot {
  std::vector<MetricRow> rows;

  /// One JSON object: {"schema_version":1,"metrics":[{...},...]}.
  /// Histogram rows carry derived p50/p90/p99 alongside the raw buckets
  /// so stat --json / the daemon METRICS op report percentiles directly.
  std::string to_json() const;

  /// Prometheus text exposition format (v0.0.4): dots in metric names
  /// become underscores under an "aec_" prefix, histograms render
  /// cumulative `_bucket{le="…"}` series (the registry stores per-bucket
  /// counts) plus `_sum`/`_count`, gauges/counters one sample each.
  /// Served by aecd's GET /metrics.
  std::string to_prometheus() const;
  /// Human table ("aectool stat --metrics"). Zero-valued rows are kept:
  /// an instrumented-but-idle subsystem is information too.
  void print(std::FILE* out) const;
};

/// Name → metric registry. Registration (get-or-create) takes the mutex;
/// returned pointers are stable for the registry's lifetime, so hot paths
/// never look anything up.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// Get-or-create; re-registering an existing histogram requires the
  /// same bounds (CheckError otherwise — silent bound drift would make
  /// trend lines incomparable).
  Histogram* histogram(const std::string& name,
                       std::vector<std::uint64_t> upper_bounds);

  MetricsSnapshot snapshot() const;

  /// The process-wide registry every built-in instrumentation point uses.
  /// Tests that need isolation construct their own registry.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace aec::obs
