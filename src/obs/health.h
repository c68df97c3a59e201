// Live archive health: the paper's Fig. 12 vulnerable-data metric as a
// continuously maintained, queryable signal instead of an offline
// simulation output.
//
// A present data block's *margin* is the number of strand classes whose
// two incident parities (input — or the virtual zero bootstrap near an
// open origin — and output) are both available: exactly the per-class
// test inside RepairPlanner::node_repairable. A block with margin 0 is
// *vulnerable* — losing it now would be unrecoverable by any single-XOR
// step (Fig. 12's "vulnerable data"); margin α means all α repair paths
// survive. The monitor keeps per-block margins for every *degraded*
// block (margin < α) and rolls them up into gauges:
//
//   health.data_missing / health.parity_missing   damage census
//   health.degraded_blocks                        present, margin < α
//   health.vulnerable_blocks                      present, margin == 0
//   health.min_margin                             α when nothing degraded
//   health.margin<k>.blocks                       degraded count at margin k
//
// Maintenance is incremental, O(damage) — the same discipline as the
// AvailabilityIndex that feeds it: a parity delta re-scores only the two
// data blocks incident to that edge; a data delta re-scores only itself.
// The monitor mirrors the missing set internally so it never reenters
// the index from the delta callback (lock order: index stripe mutex →
// health mutex, never the reverse).
//
// The census is one byte per lattice node i: a bit for d_i missing, a
// bit per strand class for the parity whose tail is i, and i's tracked
// margin (present and margin < α; α ≤ 3, so it fits). A delta flips one
// bit and re-scores at most two nodes by reading at most 2α bytes, with
// no hashing and no allocation under the mutex. Keys the array cannot
// hold — an index outside [1, n], a class the code does not use, or any
// key while unconfigured — wait in a small set until grow_to covers
// them. The array is sized from the lattice, never from a key, and costs
// one byte per data block: 256 MiB per TiB of 4 KiB blocks (a scrub's
// AvailabilityMap takes 1 + α bytes per node). configure_lattice and
// reset_from clear it in O(n) and re-score O(missing); grow_to re-scores
// only the appended nodes, and only while something is missing.
//
// The ranked worst-N query is the feed for ROADMAP item 2's
// vulnerability-ranked background scrubber: repair candidates ordered by
// distance-to-unrecoverable. It scans the array in index order, O(n)
// bytes, once per margin value; summary() stays O(1).
//
// Non-lattice codecs (RS/REP) run the monitor unconfigured: damage
// counts only, no margins.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/codec/availability_index.h"
#include "core/codec/block_key.h"
#include "core/lattice/lattice.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace aec::obs {

/// One degraded block in a ranked health report.
struct BlockHealth {
  NodeIndex index = 0;
  std::uint32_t margin = 0;  // surviving repair paths, 0 = vulnerable

  friend bool operator==(const BlockHealth&, const BlockHealth&) = default;
};

/// Point-in-time rollup (the `aectool stat` health block and the
/// daemon's /healthz body).
struct HealthSummary {
  bool lattice_mode = false;  // margins meaningful (AE codec configured)
  std::uint32_t alpha = 0;
  std::uint64_t n_nodes = 0;
  std::uint64_t data_missing = 0;
  std::uint64_t parity_missing = 0;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t vulnerable_blocks = 0;
  /// α (or 0 unconfigured) when nothing is degraded.
  std::uint32_t min_margin = 0;
  /// Degraded-block count per margin value in [0, α).
  std::vector<std::uint64_t> margin_counts;

  bool degraded() const noexcept {
    return data_missing + parity_missing != 0;
  }

  /// {"lattice":…,"alpha":…,…,"margin_counts":[…]} — embedded in
  /// Archive::stat_json.
  std::string to_json() const;
};

class HealthMonitor final : public AvailabilityIndex::Listener {
 public:
  explicit HealthMonitor(
      MetricsRegistry* registry = &MetricsRegistry::global(),
      Logger* logger = &Logger::global());

  /// Enables margin tracking for an AE lattice of `n_nodes` data blocks.
  /// Until called the monitor only counts missing blocks by kind.
  void configure_lattice(const CodeParams& params, std::uint64_t n_nodes);

  /// Extends the lattice as the archive grows (ingest appends nodes):
  /// O(new nodes), re-scoring them only while something is missing (a
  /// missing parity's head may land on one). Shrinking is ignored.
  void grow_to(std::uint64_t n_nodes);

  bool lattice_configured() const;
  std::uint64_t n_nodes() const;

  /// AvailabilityIndex delta hook. Runs under the index's stripe lock:
  /// flips one census bit, re-scores at most two blocks, publishes
  /// gauges.
  void on_availability_delta(const BlockKey& key, bool missing) override;

  /// Rebuilds all state from the index's current missing set — O(n) to
  /// clear, O(damage) to re-score. The index must be quiescent (Archive
  /// open/reindex call this after reseeding).
  void reset_from(const AvailabilityIndex& index);

  HealthSummary summary() const;

  /// The `n` most vulnerable present data blocks, ascending margin (ties
  /// by index) — the scrubber's priority order. Scans the census array.
  std::vector<BlockHealth> worst(std::size_t n) const;

  /// Every degraded block, same order as worst() (test oracle hook).
  std::vector<BlockHealth> degraded_all() const { return worst(SIZE_MAX); }

 private:
  // Census byte of node i: kDataMissing, one parity_bit per strand class
  // (the parity whose tail is i), and the tracked margin plus one in
  // kMarginMask (0 = not degraded).
  static constexpr std::uint8_t kDataMissing = 1u << 0;
  static constexpr unsigned kMarginShift = 4;
  static constexpr std::uint8_t kMarginMask = 3u << kMarginShift;
  static constexpr std::uint8_t parity_bit(StrandClass cls) noexcept {
    return static_cast<std::uint8_t>(2u << static_cast<unsigned>(cls));
  }

  /// True when `key` lives in the census array. mu_ held.
  bool in_census(const BlockKey& key) const noexcept;
  std::uint32_t margin_of(NodeIndex i) const;  // mu_ held, i in census
  void rescore(NodeIndex i);                   // mu_ held, i in census
  void apply_delta_locked(const BlockKey& key, bool missing);
  /// Every missing key the monitor holds (census and overflow set).
  std::vector<BlockKey> missing_keys_locked() const;
  /// Clears the census to the current lattice and replays `missing`.
  void rebuild_locked(const std::vector<BlockKey>& missing);
  void publish_locked();

  MetricsRegistry* registry_;
  Logger* logger_;

  mutable std::mutex mu_;
  std::optional<CodeParams> params_;
  std::uint64_t n_nodes_ = 0;
  std::optional<Lattice> lattice_;  // absent until configured with n ≥ 1
  /// Parity bits of the code's strand classes.
  std::uint8_t class_bits_ = 0;
  /// One byte per node, indexed by node (entry 0 unused); n + 1 entries
  /// while a lattice is configured, empty otherwise.
  std::vector<std::uint8_t> census_;
  /// Missing keys the census cannot hold yet (see in_census).
  std::unordered_set<BlockKey, BlockKeyHash> outside_;
  std::vector<std::uint64_t> margin_counts_;  // [0, α)
  std::uint64_t degraded_ = 0;                // sum of margin_counts_
  std::uint64_t data_missing_ = 0;
  std::uint64_t parity_missing_ = 0;
  bool was_vulnerable_ = false;

  Gauge* g_data_missing_;
  Gauge* g_parity_missing_;
  Gauge* g_degraded_;
  Gauge* g_vulnerable_;
  Gauge* g_min_margin_;
  std::vector<Gauge*> g_margin_counts_;  // registered at configure time
  Counter* c_deltas_;
};

/// Brute-force full-lattice recomputation of the degraded set (every
/// present data node scored from scratch) — the randomized-test oracle
/// and bench_health_scan's full-rescan baseline. Output order matches
/// HealthMonitor::worst.
std::vector<BlockHealth> compute_degraded_full(const CodeParams& params,
                                               std::uint64_t n_nodes,
                                               const AvailabilityIndex& index);

}  // namespace aec::obs
