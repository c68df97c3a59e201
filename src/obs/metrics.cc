#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace aec::obs {

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  AEC_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    AEC_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                  "histogram bounds must be strictly ascending");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> Histogram::exponential_bounds(std::uint64_t start,
                                                         std::uint64_t factor,
                                                         std::size_t count) {
  AEC_CHECK_MSG(start > 0 && factor > 1 && count > 0,
                "exponential_bounds needs start>0, factor>1, count>0");
  std::vector<std::uint64_t> bounds;
  bounds.reserve(count);
  std::uint64_t b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    if (b > (~std::uint64_t{0}) / factor) break;  // would overflow; stop early
    b *= factor;
  }
  return bounds;
}

std::vector<std::uint64_t> Histogram::latency_bounds_us() {
  // 1 µs … 16.7 s in ×4 steps: wide enough for a single XOR and a whole
  // rebuild pass without tuning per call-site.
  return exponential_bounds(1, 4, 13);
}

std::vector<std::uint64_t> Histogram::size_bounds() {
  // 1 … 65536 blocks in ×4 steps (batch and wave widths).
  return exponential_bounds(1, 4, 9);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    AEC_CHECK_MSG(slot->upper_bounds() == upper_bounds,
                  "histogram '" + name + "' re-registered with different bounds");
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricRow row;
    row.name = name;
    row.type = MetricRow::Type::kCounter;
    row.value = c->value();
    snap.rows.push_back(std::move(row));
  }
  for (const auto& [name, g] : gauges_) {
    MetricRow row;
    row.name = name;
    row.type = MetricRow::Type::kGauge;
    row.level = g->value();
    snap.rows.push_back(std::move(row));
  }
  for (const auto& [name, h] : histograms_) {
    MetricRow row;
    row.name = name;
    row.type = MetricRow::Type::kHistogram;
    // Buckets before count: observe() bumps its bucket first, so a count
    // read afterwards trails the buckets by at most the in-flight
    // observes, however long this thread is preempted between the reads.
    const auto& bounds = h->upper_bounds();
    row.buckets.reserve(bounds.size() + 1);
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      row.buckets.emplace_back(bounds[i], h->bucket_count(i));
    }
    row.buckets.emplace_back(Histogram::kInf, h->bucket_count(bounds.size()));
    row.count = h->count();
    row.sum = h->sum();
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

double MetricRow::quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  double lower = 0.0;
  for (const auto& [bound, bucket_count] : buckets) {
    if (bucket_count > 0 && cum + static_cast<double>(bucket_count) >= rank) {
      if (bound == Histogram::kInf) return lower;  // clamp: no upper edge
      double frac = (rank - cum) / static_cast<double>(bucket_count);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lower + (static_cast<double>(bound) - lower) * frac;
    }
    cum += static_cast<double>(bucket_count);
    if (bound != Histogram::kInf) lower = static_cast<double>(bound);
  }
  return lower;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"schema_version\":1,\"metrics\":[";
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << row.name << "\"";
    switch (row.type) {
      case MetricRow::Type::kCounter:
        out << ",\"type\":\"counter\",\"value\":" << row.value;
        break;
      case MetricRow::Type::kGauge:
        out << ",\"type\":\"gauge\",\"value\":" << row.level;
        break;
      case MetricRow::Type::kHistogram: {
        out << ",\"type\":\"histogram\",\"count\":" << row.count
            << ",\"sum\":" << row.sum << ",\"p50\":" << row.quantile(0.50)
            << ",\"p90\":" << row.quantile(0.90)
            << ",\"p99\":" << row.quantile(0.99) << ",\"buckets\":[";
        bool bfirst = true;
        for (const auto& [bound, count] : row.buckets) {
          if (!bfirst) out << ',';
          bfirst = false;
          out << "{\"le\":";
          if (bound == Histogram::kInf) {
            out << "\"inf\"";
          } else {
            out << bound;
          }
          out << ",\"count\":" << count << '}';
        }
        out << ']';
        break;
      }
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  auto sanitize = [](const std::string& name) {
    std::string out = "aec_";
    out.reserve(name.size() + 4);
    for (const char ch : name) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9');
      out += ok ? ch : '_';
    }
    return out;
  };
  std::ostringstream out;
  for (const auto& row : rows) {
    const std::string name = sanitize(row.name);
    switch (row.type) {
      case MetricRow::Type::kCounter:
        out << "# TYPE " << name << " counter\n"
            << name << ' ' << row.value << '\n';
        break;
      case MetricRow::Type::kGauge:
        out << "# TYPE " << name << " gauge\n"
            << name << ' ' << row.level << '\n';
        break;
      case MetricRow::Type::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (const auto& [bound, count] : row.buckets) {
          cumulative += count;
          out << name << "_bucket{le=\"";
          if (bound == Histogram::kInf) {
            out << "+Inf";
          } else {
            out << bound;
          }
          out << "\"} " << cumulative << '\n';
        }
        out << name << "_sum " << row.sum << '\n'
            << name << "_count " << row.count << '\n';
        break;
      }
    }
  }
  return out.str();
}

void MetricsSnapshot::print(std::FILE* out) const {
  for (const auto& row : rows) {
    switch (row.type) {
      case MetricRow::Type::kCounter:
        std::fprintf(out, "  %-36s %llu\n", row.name.c_str(),
                     static_cast<unsigned long long>(row.value));
        break;
      case MetricRow::Type::kGauge:
        std::fprintf(out, "  %-36s %lld\n", row.name.c_str(),
                     static_cast<long long>(row.level));
        break;
      case MetricRow::Type::kHistogram: {
        const double avg =
            row.count ? static_cast<double>(row.sum) / row.count : 0.0;
        std::fprintf(out, "  %-36s count=%llu sum=%llu avg=%.1f\n",
                     row.name.c_str(),
                     static_cast<unsigned long long>(row.count),
                     static_cast<unsigned long long>(row.sum), avg);
        break;
      }
    }
  }
}

}  // namespace aec::obs
