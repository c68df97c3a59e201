// Telemetry layer: registry get-or-create semantics, histogram bucket
// boundaries, exact sums under concurrent increments (the MetricsTest /
// TraceTest suites run under the TSan CI job), snapshot-while-mutating
// safety, and the trace ring's bounded-overwrite contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/thread_pool.h"

namespace aec {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricRow;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceEvent;
using obs::TraceRing;
using obs::TraceSpan;

// --- counters / gauges ------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

// --- histogram --------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  // Bucket i counts samples in (bounds[i-1], bounds[i]]: a sample equal
  // to a bound lands in that bound's bucket, one above spills over.
  h.observe(0);
  h.observe(10);    // both → bucket 0 (≤ 10)
  h.observe(11);    // → bucket 1
  h.observe(100);   // → bucket 1 (≤ 100)
  h.observe(1000);  // → bucket 2
  h.observe(1001);  // → overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 1000 + 1001);
}

TEST(MetricsTest, HistogramRejectsMalformedBounds) {
  EXPECT_THROW(Histogram(std::vector<std::uint64_t>{}), CheckError);
  EXPECT_THROW(Histogram(std::vector<std::uint64_t>{5, 5}), CheckError);
  EXPECT_THROW(Histogram(std::vector<std::uint64_t>{10, 5}), CheckError);
}

TEST(MetricsTest, ExponentialBoundsCoverTheirRange) {
  const auto bounds = Histogram::exponential_bounds(1, 4, 5);
  EXPECT_EQ(bounds, (std::vector<std::uint64_t>{1, 4, 16, 64, 256}));
  // Defaults are well-formed (strictly ascending is checked by the
  // Histogram constructor).
  Histogram latency(Histogram::latency_bounds_us());
  Histogram sizes(Histogram::size_bounds());
  EXPECT_GE(latency.upper_bounds().back(), 1'000'000u);  // ≥ 1 s
  EXPECT_GE(sizes.upper_bounds().back(), 65536u);
}

// --- registry ---------------------------------------------------------------

TEST(MetricsTest, RegistryGetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("a.count");
  Counter* c2 = reg.counter("a.count");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.gauge("a.level");
  EXPECT_EQ(g1, reg.gauge("a.level"));
  Histogram* h1 = reg.histogram("a.us", {1, 2, 3});
  EXPECT_EQ(h1, reg.histogram("a.us", std::vector<std::uint64_t>{1, 2, 3}));
  // Same name, different bounds: silent drift would make trend lines
  // incomparable — refuse loudly.
  EXPECT_THROW(reg.histogram("a.us", std::vector<std::uint64_t>{1, 2}),
               CheckError);
  // Counters, gauges and histograms live in separate namespaces.
  EXPECT_NE(static_cast<void*>(c1), static_cast<void*>(g1));
}

TEST(MetricsTest, SnapshotIsNameSortedAndTyped) {
  MetricsRegistry reg;
  reg.counter("z.count")->add(5);
  reg.gauge("m.level")->set(-3);
  reg.histogram("a.us", {10})->observe(7);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.rows.size(), 3u);
  EXPECT_EQ(snap.rows[0].name, "a.us");
  EXPECT_EQ(snap.rows[0].type, MetricRow::Type::kHistogram);
  EXPECT_EQ(snap.rows[0].count, 1u);
  EXPECT_EQ(snap.rows[0].sum, 7u);
  ASSERT_EQ(snap.rows[0].buckets.size(), 2u);  // one bound + overflow
  EXPECT_EQ(snap.rows[0].buckets[0].second, 1u);
  EXPECT_EQ(snap.rows[1].name, "m.level");
  EXPECT_EQ(snap.rows[1].type, MetricRow::Type::kGauge);
  EXPECT_EQ(snap.rows[1].level, -3);
  EXPECT_EQ(snap.rows[2].name, "z.count");
  EXPECT_EQ(snap.rows[2].type, MetricRow::Type::kCounter);
  EXPECT_EQ(snap.rows[2].value, 5u);
}

TEST(MetricsTest, SnapshotJsonCarriesSchemaVersionAndRows) {
  MetricsRegistry reg;
  reg.counter("x.count")->add(9);
  reg.histogram("x.us", {100})->observe(250);  // lands in overflow
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"x.count\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\",\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\",\"count\":1"), std::string::npos);
}

TEST(MetricsTest, ParallelIncrementsFromPoolWorkersSumExactly) {
  MetricsRegistry reg;
  Counter* counter = reg.counter("t.count");
  Histogram* histogram = reg.histogram("t.us", {8, 64});
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kPerTask = 10000;
  {
    pipeline::ThreadPool pool(4);
    pipeline::ThreadPool::Group group;
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit(group, [&, t] {
        for (std::size_t i = 0; i < kPerTask; ++i) {
          counter->add();
          histogram->observe(t);  // task index → a fixed bucket
        }
      });
    }
    pool.wait(group);
  }
  EXPECT_EQ(counter->value(), kTasks * kPerTask);
  EXPECT_EQ(histogram->count(), kTasks * kPerTask);
  // Tasks 0..8 hit bucket 0 (≤8), 9..15 bucket 1 (≤64): exact split.
  EXPECT_EQ(histogram->bucket_count(0), 9 * kPerTask);
  EXPECT_EQ(histogram->bucket_count(1), 7 * kPerTask);
  EXPECT_EQ(histogram->bucket_count(2), 0u);
}

TEST(MetricsTest, SnapshotWhileMutatingIsSafeAndMonotonic) {
  MetricsRegistry reg;
  Counter* counter = reg.counter("s.count");
  Histogram* histogram = reg.histogram("s.us", {10});
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      counter->add();
      histogram->observe(3);
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.rows.size(), 2u);
    // rows are name-sorted: [0] = "s.count" (counter), [1] = "s.us"
    // (histogram). Counter reads are monotonic across snapshots; the
    // histogram's count may trail its buckets by the one in-flight
    // observe but never more.
    EXPECT_GE(snap.rows[0].value, last);
    last = snap.rows[0].value;
    EXPECT_GE(snap.rows[1].count + 1, snap.rows[1].buckets[0].second);
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  const MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.rows[0].value, counter->value());
  EXPECT_EQ(final_snap.rows[1].count, final_snap.rows[1].buckets[0].second);
}

// --- trace ring -------------------------------------------------------------

TEST(TraceTest, DisabledRingRecordsNothing) {
  TraceRing ring(8);
  EXPECT_FALSE(ring.enabled());
  { TraceSpan span(ring, "noop"); }
  ring.record(TraceEvent{"direct", 0, 0, 0, 0, 0});
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.now_us(), 0u);
}

TEST(TraceTest, SpansRecordNameArgsAndDuration) {
  TraceRing ring(8);
  ring.enable();
  {
    TraceSpan span(ring, "work");
    span.set_args(42, 7);
  }
  ring.disable();
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_EQ(events[0].a0, 42u);
  EXPECT_EQ(events[0].a1, 7u);
  EXPECT_GE(events[0].start_us + events[0].dur_us, events[0].start_us);
}

TEST(TraceTest, SpanArmedAtConstructionNotAtDestruction) {
  TraceRing ring(8);
  // Constructed while disabled → stays inert even if the ring is
  // enabled before the span ends (its start time would be garbage).
  TraceSpan* span = new TraceSpan(ring, "late");
  ring.enable();
  delete span;
  EXPECT_TRUE(ring.events().empty());
}

TEST(TraceTest, RingWrapsOldestFirstAndCountsDropped) {
  TraceRing ring(4);
  ring.enable();
  for (std::uint64_t i = 0; i < 6; ++i)
    ring.record(TraceEvent{"e", i, 0, 0, i, 0});
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // 0 and 1 were overwritten; the survivors come back oldest first.
  EXPECT_EQ(events[0].a0, 2u);
  EXPECT_EQ(events[3].a0, 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Re-enable clears both the ring and the drop count.
  ring.enable();
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceTest, ConcurrentSpansAllLand) {
  TraceRing ring(4096);
  ring.enable();
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kPerTask = 100;
  {
    pipeline::ThreadPool pool(4);
    pipeline::ThreadPool::Group group;
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit(group, [&] {
        for (std::size_t i = 0; i < kPerTask; ++i)
          TraceSpan span(ring, "burst");
      });
    }
    pool.wait(group);
  }
  ring.disable();
  EXPECT_EQ(ring.events().size() + ring.dropped(), kTasks * kPerTask);
}

TEST(TraceTest, DumpJsonlEmitsOneLinePerEventPlusSummary) {
  TraceRing ring(8);
  ring.enable();
  { TraceSpan span(ring, "op"); }
  ring.disable();
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ring.dump_jsonl(tmp);
  std::fseek(tmp, 0, SEEK_SET);
  std::string dump;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0) dump.append(buf, n);
  std::fclose(tmp);
  EXPECT_NE(dump.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace_summary\""), std::string::npos);
  EXPECT_NE(dump.find("\"schema_version\":1"), std::string::npos);
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

// --- quantiles --------------------------------------------------------------

TEST(MetricsTest, QuantileInterpolatesWithinBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("q.us", {10, 100, 1000});
  // 10 samples in (0, 10], nothing else: the q-th sample interpolates
  // linearly across [0, 10].
  for (int i = 0; i < 10; ++i) h->observe(5);
  MetricRow row = reg.snapshot().rows[0];
  EXPECT_DOUBLE_EQ(row.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(row.quantile(1.0), 10.0);
  // Add 10 samples in (10, 100]: p50 sits at the bucket boundary, p75
  // halfway into the second bucket's [10, 100] span.
  for (int i = 0; i < 10; ++i) h->observe(50);
  row = reg.snapshot().rows[0];
  EXPECT_DOUBLE_EQ(row.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(row.quantile(0.75), 55.0);
}

TEST(MetricsTest, QuantileClampsToLastFiniteBoundInOverflow) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("q.us", {10, 100});
  h->observe(5000);  // overflow bucket only
  const MetricRow row = reg.snapshot().rows[0];
  // No upper edge to interpolate against: report the overflow bucket's
  // lower bound rather than inventing a number.
  EXPECT_DOUBLE_EQ(row.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(row.quantile(0.99), 100.0);
}

TEST(MetricsTest, QuantileOnEmptyHistogramIsZero) {
  MetricsRegistry reg;
  reg.histogram("q.us", {10});
  EXPECT_DOUBLE_EQ(reg.snapshot().rows[0].quantile(0.5), 0.0);
}

TEST(MetricsTest, JsonSnapshotCarriesPercentiles) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("lat.us", {10, 100});
  for (int i = 0; i < 4; ++i) h->observe(5);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

// --- prometheus exposition --------------------------------------------------

TEST(MetricsTest, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("net.requests")->add(5);
  reg.gauge("health.min_margin")->set(-1);
  Histogram* h = reg.histogram("repair.wave_us", {10, 100});
  h->observe(7);
  h->observe(50);
  h->observe(5000);
  const std::string text = reg.snapshot().to_prometheus();
  // Names: dots → underscores under the aec_ prefix, one TYPE line per
  // family.
  EXPECT_NE(text.find("# TYPE aec_net_requests counter\n"
                      "aec_net_requests 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aec_health_min_margin gauge\n"
                      "aec_health_min_margin -1\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end in +Inf == _count.
  EXPECT_NE(text.find("aec_repair_wave_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("aec_repair_wave_us_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("aec_repair_wave_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("aec_repair_wave_us_sum 5057\n"), std::string::npos);
  EXPECT_NE(text.find("aec_repair_wave_us_count 3\n"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// --- dump filtering & escaping ---------------------------------------------

TEST(TraceTest, DumpJsonlEscapesUserSuppliedLabels) {
  TraceRing ring(8);
  ring.enable();
  {
    TraceSpan span(ring, "op");
    span.set_label("a\"b\\c\nd");  // user-controlled file name
  }
  ring.disable();
  const std::string dump = ring.dump_jsonl_string();
  // The raw bytes must not survive unescaped — a quote in a file name
  // must not terminate the JSON string early.
  EXPECT_NE(dump.find("\"label\":\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_EQ(dump.find("a\"b"), std::string::npos);
}

TEST(TraceTest, DumpJsonlFiltersByRequestId) {
  TraceRing ring(8);
  ring.enable();
  {
    TraceSpan span(ring, "keep");
    span.set_request_id(77);
  }
  {
    TraceSpan span(ring, "drop");
    span.set_request_id(88);
  }
  { TraceSpan span(ring, "untagged"); }
  ring.disable();
  const std::string all = ring.dump_jsonl_string();
  EXPECT_NE(all.find("\"name\":\"keep\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"drop\""), std::string::npos);
  const std::string filtered = ring.dump_jsonl_string(77);
  EXPECT_NE(filtered.find("\"name\":\"keep\""), std::string::npos);
  EXPECT_NE(filtered.find("\"req\":77"), std::string::npos);
  EXPECT_EQ(filtered.find("\"name\":\"drop\""), std::string::npos);
  EXPECT_EQ(filtered.find("\"name\":\"untagged\""), std::string::npos);
  EXPECT_NE(filtered.find("\"trace_summary\""), std::string::npos);
}

TEST(TraceTest, ThreadOrdinalIsStablePerThread) {
  const std::uint32_t mine = TraceSpan::thread_ordinal();
  EXPECT_EQ(TraceSpan::thread_ordinal(), mine);
  std::uint32_t other = mine;
  std::thread peer([&] { other = TraceSpan::thread_ordinal(); });
  peer.join();
  EXPECT_NE(other, mine);
}

}  // namespace
}  // namespace aec
