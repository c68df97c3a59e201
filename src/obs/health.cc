#include "obs/health.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "core/codec/repair_planner.h"

namespace aec::obs {

HealthMonitor::HealthMonitor(MetricsRegistry* registry, Logger* logger)
    : registry_(registry),
      logger_(logger),
      g_data_missing_(registry->gauge("health.data_missing")),
      g_parity_missing_(registry->gauge("health.parity_missing")),
      g_degraded_(registry->gauge("health.degraded_blocks")),
      g_vulnerable_(registry->gauge("health.vulnerable_blocks")),
      g_min_margin_(registry->gauge("health.min_margin")),
      c_deltas_(registry->counter("health.deltas")) {}

namespace {

constexpr StrandClass kClassOrder[] = {StrandClass::kHorizontal,
                                       StrandClass::kRightHanded,
                                       StrandClass::kLeftHanded};

/// The repair planner's block order: ascending index, data before
/// parity, parities in strand-class order.
bool block_order_less(const BlockKey& a, const BlockKey& b) noexcept {
  if (a.index != b.index) return a.index < b.index;
  if (a.kind != b.kind) return a.is_data();
  return static_cast<std::uint8_t>(a.cls) < static_cast<std::uint8_t>(b.cls);
}

}  // namespace

void HealthMonitor::configure_lattice(const CodeParams& params,
                                      std::uint64_t n_nodes) {
  std::lock_guard lock(mu_);
  params_ = params;
  class_bits_ = 0;
  for (const StrandClass cls : params.classes()) class_bits_ |= parity_bit(cls);
  g_margin_counts_.clear();
  for (std::uint32_t k = 0; k < params.alpha(); ++k) {
    g_margin_counts_.push_back(registry_->gauge(
        "health.margin" + std::to_string(k) + ".blocks"));
  }
  margin_counts_.assign(params.alpha(), 0);
  resize_locked(n_nodes);
  clear_locked();
  publish_locked();
}

void HealthMonitor::resize_locked(std::uint64_t n_nodes) {
  n_nodes_ = n_nodes;
  if (n_nodes_ >= 1)
    lattice_.emplace(*params_, n_nodes_, Lattice::Boundary::kOpen);
  else
    lattice_.reset();
  census_.resize(n_nodes_ + 1, 0);
}

void HealthMonitor::grow_to(std::uint64_t n_nodes) {
  std::lock_guard lock(mu_);
  if (!params_ || n_nodes <= n_nodes_) return;
  const std::uint64_t old_n = n_nodes_;
  resize_locked(n_nodes);
  // Missing keys the census now covers move into it.
  for (auto it = outside_.begin(); it != outside_.end();) {
    if (!in_census(*it)) {
      ++it;
      continue;
    }
    const BlockKey key = *it;
    it = outside_.erase(it);
    apply_delta_locked(key, true);
  }
  // An appended node's input parities may already be missing. Earlier
  // nodes keep their margins: both of a node's parity sets have tails at
  // or before it.
  if (data_missing_ + parity_missing_ != 0) {
    for (auto i = static_cast<NodeIndex>(old_n) + 1;
         static_cast<std::uint64_t>(i) <= n_nodes_; ++i)
      rescore(i);
  }
  publish_locked();
}

bool HealthMonitor::lattice_configured() const {
  std::lock_guard lock(mu_);
  return params_.has_value();
}

std::uint64_t HealthMonitor::n_nodes() const {
  std::lock_guard lock(mu_);
  return n_nodes_;
}

void HealthMonitor::on_block(const BlockKey& key, bool present) {
  // A key's notifications arrive in mutation order under the store's key
  // lock, so a put after that key's erase sees the ceiling that erase
  // raised, a higher one, or a reset made while nothing (this key
  // included) was missing: above it, this key is not missing.
  if (present && key.index > missing_ceiling_[key.is_data() ? 0 : 1].load())
    return;
  bool delta = false;
  {
    std::lock_guard lock(mu_);
    delta = apply_delta_locked(key, !present);
    if (delta) publish_locked();
  }
  if (delta) c_deltas_->add();
}

void HealthMonitor::clear() {
  std::lock_guard lock(mu_);
  clear_locked();
  publish_locked();
}

bool HealthMonitor::is_missing(const BlockKey& key) const {
  std::lock_guard lock(mu_);
  if (!in_census(key)) return outside_.contains(key);
  const std::uint8_t bit =
      key.is_data() ? kDataMissing : parity_bit(key.cls);
  return (census_[key.index] & bit) != 0;
}

std::uint64_t HealthMonitor::missing_count() const {
  std::lock_guard lock(mu_);
  return missing_total_locked();
}

std::uint64_t HealthMonitor::missing_total_locked() const noexcept {
  // Without a lattice the counts are the overflow's own.
  return (params_ ? data_missing_ + parity_missing_ : 0) + outside_.size();
}

std::vector<BlockKey> HealthMonitor::missing_keys() const {
  std::vector<BlockKey> keys;
  std::vector<BlockKey> extra;
  {
    std::lock_guard lock(mu_);
    // Without a lattice the counts are the overflow's, the census empty.
    if (params_ && data_missing_ + parity_missing_ != 0) {
      keys.reserve(data_missing_ + parity_missing_);
      for (std::size_t i = 1; i < census_.size(); ++i) {
        const std::uint8_t byte = census_[i];
        if ((byte & (kDataMissing | class_bits_)) == 0) continue;
        const auto index = static_cast<NodeIndex>(i);
        if ((byte & kDataMissing) != 0) keys.push_back(BlockKey::data(index));
        for (const StrandClass cls : kClassOrder) {
          if ((byte & parity_bit(cls)) != 0)
            keys.push_back(BlockKey::parity(Edge{cls, index}));
        }
      }
    }
    extra.assign(outside_.begin(), outside_.end());
  }
  if (extra.empty()) return keys;
  std::sort(extra.begin(), extra.end(), block_order_less);
  std::vector<BlockKey> merged;
  merged.reserve(keys.size() + extra.size());
  std::merge(keys.begin(), keys.end(), extra.begin(), extra.end(),
             std::back_inserter(merged), block_order_less);
  return merged;
}

bool HealthMonitor::in_census(const BlockKey& key) const noexcept {
  if (key.index < 1 || static_cast<std::uint64_t>(key.index) > n_nodes_)
    return false;
  return key.is_data() || (class_bits_ & parity_bit(key.cls)) != 0;
}

std::uint32_t HealthMonitor::margin_of(NodeIndex i) const {
  const std::uint8_t own = census_[i];
  std::uint32_t margin = 0;
  for (const StrandClass cls : params_->classes()) {
    // Mirror of RepairPlanner::node_repairable's per-class test: the
    // output parity and the input parity (virtual zero at an open
    // origin counts as present) must both be available. The input's
    // tail precedes i, so its byte is in the census too.
    const std::uint8_t bit = parity_bit(cls);
    if ((own & bit) != 0) continue;
    const auto input = lattice_->input_edge(i, cls);
    AEC_DCHECK(!input || input->tail < i);
    if (!input || (census_[input->tail] & bit) == 0) ++margin;
  }
  return margin;
}

void HealthMonitor::rescore(NodeIndex i) {
  std::uint8_t& byte = census_[i];
  // Tracked margin + 1, or 0 when i is not degraded. Missing data is
  // damage (counted separately), not a vulnerability candidate — it has
  // no bytes left to protect.
  std::uint32_t tracked = 0;
  if ((byte & kDataMissing) == 0) {
    const std::uint32_t margin = margin_of(i);
    if (margin < params_->alpha()) tracked = margin + 1;
  }
  const std::uint32_t was = (byte & kMarginMask) >> kMarginShift;
  if (tracked == was) return;
  if (was != 0) {
    --margin_counts_[was - 1];
    --degraded_;
  }
  if (tracked != 0) {
    ++margin_counts_[tracked - 1];
    ++degraded_;
  }
  byte = static_cast<std::uint8_t>((byte & ~kMarginMask) |
                                   (tracked << kMarginShift));
}

bool HealthMonitor::apply_delta_locked(const BlockKey& key, bool missing) {
  if (missing) {
    auto& ceiling = missing_ceiling_[key.is_data() ? 0 : 1];
    if (key.index > ceiling.load()) ceiling.store(key.index);
  }
  auto& count = key.is_data() ? data_missing_ : parity_missing_;
  if (!in_census(key)) {
    const bool changed =
        missing ? outside_.insert(key).second : outside_.erase(key) != 0;
    // Without a lattice every key counts; a lattice census ignores the
    // keys it does not cover yet.
    if (changed && !params_) missing ? ++count : --count;
    return changed;
  }
  std::uint8_t& byte = census_[key.index];
  const std::uint8_t bit =
      key.is_data() ? kDataMissing : parity_bit(key.cls);
  if (((byte & bit) != 0) == missing) return false;
  byte ^= bit;
  missing ? ++count : --count;
  rescore(key.index);
  if (key.is_parity()) {
    // A parity p_{i,j} is incident to exactly two data blocks: its tail
    // i (whose output it is) and its head j (whose input it is) — the
    // whole blast radius of this delta.
    const NodeIndex head = lattice_->edge_head(key.edge());
    if (lattice_->is_valid_node(head)) rescore(head);
  }
  return true;
}

void HealthMonitor::clear_locked() {
  std::fill(census_.begin(), census_.end(), 0);
  outside_.clear();
  std::fill(margin_counts_.begin(), margin_counts_.end(), 0);
  degraded_ = 0;
  data_missing_ = 0;
  parity_missing_ = 0;
}

void HealthMonitor::publish_locked() {
  if (missing_total_locked() == 0) {
    for (auto& ceiling : missing_ceiling_) ceiling.store(kNoCeiling);
  }
  const std::uint64_t vulnerable =
      margin_counts_.empty() ? 0 : margin_counts_[0];
  std::uint32_t min_margin = params_ ? params_->alpha() : 0;
  for (std::uint32_t k = 0; k < margin_counts_.size(); ++k) {
    if (margin_counts_[k] != 0) {
      min_margin = k;
      break;
    }
  }
  g_data_missing_->set(static_cast<std::int64_t>(data_missing_));
  g_parity_missing_->set(static_cast<std::int64_t>(parity_missing_));
  g_degraded_->set(static_cast<std::int64_t>(degraded_));
  g_vulnerable_->set(static_cast<std::int64_t>(vulnerable));
  g_min_margin_->set(min_margin);
  for (std::size_t k = 0; k < g_margin_counts_.size(); ++k) {
    g_margin_counts_[k]->set(static_cast<std::int64_t>(margin_counts_[k]));
  }

  // The transition is logged, not the count: a bulk announcement (a
  // node failure, the seeding walk) crosses it at its first one or two
  // blocks. The gauge and /healthz carry the count.
  const bool vulnerable_now = vulnerable > 0;
  if (vulnerable_now != was_vulnerable_) {
    if (vulnerable_now) {
      logger_->warn("health",
                    "data blocks at margin 0: one more failure is "
                    "unrecoverable (count in health.vulnerable_blocks)");
    } else {
      logger_->info("health", "no vulnerable data blocks remain");
    }
    was_vulnerable_ = vulnerable_now;
  }
}

HealthSummary HealthMonitor::summary() const {
  std::lock_guard lock(mu_);
  HealthSummary s;
  s.lattice_mode = params_.has_value();
  s.alpha = params_ ? params_->alpha() : 0;
  s.n_nodes = params_ ? n_nodes_ : 0;
  s.data_missing = data_missing_;
  s.parity_missing = parity_missing_;
  s.degraded_blocks = degraded_;
  s.vulnerable_blocks = margin_counts_.empty() ? 0 : margin_counts_[0];
  s.min_margin = s.alpha;
  s.margin_counts = margin_counts_;
  for (std::uint32_t k = 0; k < margin_counts_.size(); ++k) {
    if (margin_counts_[k] != 0) {
      s.min_margin = k;
      break;
    }
  }
  return s;
}

std::vector<BlockHealth> HealthMonitor::worst(std::size_t n) const {
  std::lock_guard lock(mu_);
  std::vector<BlockHealth> out;
  out.reserve(std::min<std::uint64_t>(n, degraded_));
  // One index-order pass per margin value, each ending once it has met
  // every node the counts say carries that margin.
  for (std::uint32_t k = 0; k < margin_counts_.size() && out.size() < n;
       ++k) {
    const auto tag = static_cast<std::uint8_t>((k + 1) << kMarginShift);
    std::uint64_t left = margin_counts_[k];
    for (std::size_t i = 1; left != 0 && out.size() < n && i < census_.size();
         ++i) {
      if ((census_[i] & kMarginMask) != tag) continue;
      out.push_back(BlockHealth{static_cast<NodeIndex>(i), k});
      --left;
    }
  }
  return out;
}

std::string HealthSummary::to_json() const {
  std::string out;
  out += "{\"lattice\":";
  out += lattice_mode ? "true" : "false";
  out += ",\"alpha\":";
  out += std::to_string(alpha);
  out += ",\"n_nodes\":";
  out += std::to_string(n_nodes);
  out += ",\"data_missing\":";
  out += std::to_string(data_missing);
  out += ",\"parity_missing\":";
  out += std::to_string(parity_missing);
  out += ",\"degraded_blocks\":";
  out += std::to_string(degraded_blocks);
  out += ",\"vulnerable_blocks\":";
  out += std::to_string(vulnerable_blocks);
  out += ",\"min_margin\":";
  out += std::to_string(min_margin);
  out += ",\"margin_counts\":[";
  for (std::size_t k = 0; k < margin_counts.size(); ++k) {
    if (k) out += ',';
    out += std::to_string(margin_counts[k]);
  }
  out += "]}";
  return out;
}

std::vector<BlockHealth> compute_degraded_full(
    const CodeParams& params, std::uint64_t n_nodes,
    const std::vector<BlockKey>& missing) {
  std::vector<BlockHealth> out;
  if (n_nodes == 0) return out;
  const Lattice lattice(params, n_nodes, Lattice::Boundary::kOpen);
  AvailabilityMap avail(params, n_nodes);
  for (const BlockKey& key : missing)
    if (lattice_expects(params, n_nodes, key)) avail.set(key, false);
  for (NodeIndex i = 1; static_cast<std::uint64_t>(i) <= n_nodes; ++i) {
    if (!avail.data_ok(i)) continue;
    std::uint32_t margin = 0;
    for (const StrandClass cls : params.classes()) {
      const auto input = lattice.input_edge(i, cls);
      const bool input_ok = !input || avail.parity_ok(*input);
      const bool output_ok = avail.parity_ok(lattice.output_edge(i, cls));
      if (input_ok && output_ok) ++margin;
    }
    if (margin < params.alpha()) out.push_back(BlockHealth{i, margin});
  }
  std::sort(out.begin(), out.end(),
            [](const BlockHealth& a, const BlockHealth& b) {
              if (a.margin != b.margin) return a.margin < b.margin;
              return a.index < b.index;
            });
  return out;
}

}  // namespace aec::obs
