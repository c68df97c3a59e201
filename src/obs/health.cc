#include "obs/health.h"

#include <algorithm>
#include <iterator>

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

void HealthMonitor::configure_lattice(const CodeParams& params,
                                      std::uint64_t n_nodes) {
  std::lock_guard lock(mu_);
  params_ = params;
  g_margin_counts_.clear();
  for (std::uint32_t k = 0; k < params.alpha(); ++k) {
    g_margin_counts_.push_back(registry_->gauge(
        "health.margin" + std::to_string(k) + ".blocks"));
  }
  margin_counts_.assign(params.alpha(), 0);
  set_lattice_locked(n_nodes);
  reset_locked(n_nodes);
  publish_locked();
}

void HealthMonitor::set_lattice_locked(std::uint64_t n_nodes) {
  if (n_nodes >= 1)
    lattice_.emplace(*params_, n_nodes, Lattice::Boundary::kOpen);
  else
    lattice_.reset();
}

void HealthMonitor::grow_to(std::uint64_t n_nodes) {
  std::lock_guard lock(mu_);
  if (!params_ || n_nodes <= census_.n_nodes()) return;
  const std::uint64_t old_n = census_.n_nodes();
  census_.grow_to(n_nodes);
  set_lattice_locked(n_nodes);
  // Missing keys the census now covers move into it.
  for (auto it = outside_.begin(); it != outside_.end();) {
    if (!census_.covers(*it)) {
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
         static_cast<std::uint64_t>(i) <= n_nodes; ++i)
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
  return census_.n_nodes();
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

void HealthMonitor::seed(const std::vector<BlockKey>& missing) {
  std::uint64_t deltas = 0;
  {
    std::lock_guard lock(mu_);
    reset_locked(census_.n_nodes());
    for (const BlockKey& key : missing)
      if (apply_delta_locked(key, /*missing=*/true)) ++deltas;
    // The seeded state is the baseline, so publishing it logs nothing.
    was_vulnerable_ = !margin_counts_.empty() && margin_counts_[0] != 0;
    publish_locked();
  }
  c_deltas_->add(deltas);
}

bool HealthMonitor::is_missing(const BlockKey& key) const {
  std::lock_guard lock(mu_);
  return census_.covers(key) ? !census_.ok(key) : outside_.contains(key);
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
    if (params_ && data_missing_ + parity_missing_ != 0)
      keys = census_.missing_keys();
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

void HealthMonitor::rescore(NodeIndex i) {
  // Tracked margin + 1, or 0 when i is not degraded. Missing data is
  // damage (counted separately), not a vulnerability candidate — it has
  // no bytes left to protect. The margin counts the intact strands by
  // the planner's rule; an input parity's tail precedes i, so its byte
  // is in the census too.
  std::uint32_t tracked = 0;
  if (census_.data_ok(i)) {
    std::uint32_t margin = 0;
    for (const StrandClass cls : params_->classes())
      if (strand_intact(*lattice_, i, cls, census_)) ++margin;
    if (margin < params_->alpha()) tracked = margin + 1;
  }
  const std::uint32_t was = census_.owner_bits(i);
  if (tracked == was) return;
  if (was != 0) {
    --margin_counts_[was - 1];
    --degraded_;
  }
  if (tracked != 0) {
    ++margin_counts_[tracked - 1];
    ++degraded_;
  }
  census_.set_owner_bits(i, static_cast<std::uint8_t>(tracked));
}

bool HealthMonitor::apply_delta_locked(const BlockKey& key, bool missing) {
  if (missing) {
    auto& ceiling = missing_ceiling_[key.is_data() ? 0 : 1];
    if (key.index > ceiling.load()) ceiling.store(key.index);
  }
  auto& count = key.is_data() ? data_missing_ : parity_missing_;
  if (!census_.covers(key)) {
    const bool changed =
        missing ? outside_.insert(key).second : outside_.erase(key) != 0;
    // Without a lattice every key counts; a lattice census ignores the
    // keys it does not cover yet.
    if (changed && !params_) missing ? ++count : --count;
    return changed;
  }
  if (!census_.set(key, !missing)) return false;
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

void HealthMonitor::reset_locked(std::uint64_t n_nodes) {
  if (params_) census_ = Availability(*params_, n_nodes);
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
  // node failure) crosses it at its first one or two blocks. The gauge
  // and /healthz carry the count.
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
  s.n_nodes = params_ ? census_.n_nodes() : 0;
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
    std::uint64_t left = margin_counts_[k];
    for (NodeIndex i = 1; left != 0 && out.size() < n &&
                          static_cast<std::uint64_t>(i) <= census_.n_nodes();
         ++i) {
      if (census_.owner_bits(i) != k + 1) continue;
      out.push_back(BlockHealth{i, k});
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
  Availability avail(params, n_nodes);
  for (const BlockKey& key : missing)
    if (avail.covers(key)) avail.set(key, false);
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
