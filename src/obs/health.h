// Live archive health: the archive's one record of which blocks are
// missing, and the paper's Fig. 12 vulnerable-data metric kept on it as
// a continuously maintained, queryable signal instead of an offline
// simulation output.
//
// The monitor is the store's mutation observer (BlockStore::Observer):
// every put and erase notification lands here, and a notification that
// flips a key's state is a *delta*. Repair planning (scrub, node
// rebuild) and the availability census (aectool stat) both read the
// missing set from here. The archive seeds it at every open, in one
// seed() call, by walking its expected keys against the store's index.
//
// A present data block's *margin* is the number of strand classes whose
// two incident parities (input — or the virtual zero bootstrap near an
// open origin — and output) are both available: the planner's own
// per-strand rule, strand_intact. A block with margin 0 is
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
//   health.deltas                                 every delta, counted
//
// The census is an aec::Availability, the repair planner's type: one
// byte per lattice node i, a bit for d_i missing and a bit per strand
// class for the parity whose tail is i. i's tracked margin + 1 (0 unless
// i is present with margin < α ≤ 3) sits in the byte's owner bits, so
// the census stays at one byte per lattice node. A delta flips one bit
// and re-scores at most two nodes by reading at most 2α bytes: a parity
// delta re-scores the two data blocks incident to that edge, a data
// delta only itself. No hashing and no allocation under the mutex. Keys
// the census does not cover — an index past the tail, a class the code
// does not use, or any key while no lattice is configured (striped
// codecs: RS, REP) — wait in an overflow set, which grow_to moves into
// the census once it covers them.
//
// Memory: one byte per data block, 256 MiB per TiB of 4 KiB blocks (a
// scrub plans on one more such map); striped codecs keep only their
// missing keys. configure_lattice and seed reset it in O(n); grow_to
// re-scores only the appended nodes, and only while something is
// missing.
//
// Traffic: ingest announces only keys that were never missing (α + 1
// per AE data block), each past every key missing so far. Such a
// notification returns after one atomic load of the largest index a key
// of its kind (data, parity) has had while missing, reset once nothing
// is missing: no lock, with damage standing or not. Every delta, and a
// put at or below that index, takes the mutex.
//
// The ranked worst-N query is the feed for ROADMAP item 6's
// vulnerability-ranked repair service: repair candidates ordered by
// distance-to-unrecoverable. It scans the array in index order, O(n)
// bytes, once per margin value; summary() stays O(1).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/codec/availability.h"
#include "core/codec/block_key.h"
#include "core/codec/block_store.h"
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
  std::uint64_t n_nodes = 0;  // lattice nodes; 0 without margins
  std::uint64_t data_missing = 0;
  std::uint64_t parity_missing = 0;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t vulnerable_blocks = 0;
  /// α (or 0 without margins) when nothing is degraded.
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

class HealthMonitor final : public BlockStore::Observer {
 public:
  explicit HealthMonitor(
      MetricsRegistry* registry = &MetricsRegistry::global(),
      Logger* logger = &Logger::global());

  /// Census with margins for an AE lattice of `n_nodes` data blocks.
  /// Until then every key waits in the overflow set and counts (damage
  /// counts only, as striped codecs keep them). It starts from an empty
  /// census, as seed({}) does.
  void configure_lattice(const CodeParams& params, std::uint64_t n_nodes);

  /// Extends the census as the archive grows (ingest appends data
  /// blocks): O(new nodes), re-scoring appended nodes only while
  /// something is missing (a missing parity's head may land on one).
  /// Shrinking, and growing without a lattice, are ignored.
  void grow_to(std::uint64_t n_nodes);

  bool lattice_configured() const;
  /// Data blocks the census covers.
  std::uint64_t n_nodes() const;

  /// Store-observer hook (put → present, erase → missing), safe from
  /// every thread. A delta flips one census bit, re-scores at most two
  /// blocks and publishes the gauges; a put of a key past every key of
  /// its kind missing so far takes no lock.
  void on_block(const BlockKey& key, bool present) override;

  /// Replaces the census with `missing` (every other key present),
  /// keeping the configuration: O(n + |missing|), at open and reindex.
  /// Each key it marks counts as a delta; the gauges publish once, and
  /// no vulnerability transition is logged (a seed is no change).
  void seed(const std::vector<BlockKey>& missing);

  bool is_missing(const BlockKey& key) const;
  /// Every missing key, overflow included.
  std::uint64_t missing_count() const;
  /// Every missing key in the repair planner's block order: ascending
  /// index, data before parity, parities in strand-class order (H, RH,
  /// LH). One pass over the census, skipped while it holds nothing, plus
  /// the sorted overflow merged in.
  std::vector<BlockKey> missing_keys() const;

  HealthSummary summary() const;

  /// The `n` most vulnerable present data blocks, ascending margin (ties
  /// by index) — the scrubber's priority order. Scans the census array.
  std::vector<BlockHealth> worst(std::size_t n) const;

  /// Every degraded block, same order as worst() (test oracle hook).
  std::vector<BlockHealth> degraded_all() const { return worst(SIZE_MAX); }

 private:
  /// The lattice of n ≥ 1 nodes the margins are scored on. mu_ held.
  void set_lattice_locked(std::uint64_t n_nodes);
  void rescore(NodeIndex i);  // mu_ held, i in census
  /// Applies one notification; true when it was a delta. mu_ held.
  bool apply_delta_locked(const BlockKey& key, bool missing);
  /// Empties the overflow set, the margins and the counts, and sizes
  /// the census (every key present) to `n_nodes`. mu_ held.
  void reset_locked(std::uint64_t n_nodes);
  /// Every missing key, census and overflow. mu_ held.
  std::uint64_t missing_total_locked() const noexcept;
  void publish_locked();

  MetricsRegistry* registry_;
  Logger* logger_;

  mutable std::mutex mu_;
  std::optional<CodeParams> params_;  // set: margins tracked
  std::optional<Lattice> lattice_;    // lattice with n ≥ 1
  /// Missing bits per node, the tracked margin + 1 in its owner bits.
  /// Covers nothing without a lattice.
  Availability census_;
  /// Missing keys the census does not cover yet.
  std::unordered_set<BlockKey, BlockKeyHash> outside_;
  std::vector<std::uint64_t> margin_counts_;  // [0, α)
  std::uint64_t degraded_ = 0;                // sum of margin_counts_
  /// Missing census keys by kind (every key without a lattice).
  std::uint64_t data_missing_ = 0;
  std::uint64_t parity_missing_ = 0;
  /// Per kind (data, parity): the largest index a key of that kind has
  /// had while missing since nothing was last missing, kNoCeiling while
  /// nothing is. A put above it cannot be a delta — on_block's lock-free
  /// test. Raised and reset under mu_.
  static constexpr NodeIndex kNoCeiling =
      std::numeric_limits<NodeIndex>::min();
  std::atomic<NodeIndex> missing_ceiling_[2] = {kNoCeiling, kNoCeiling};
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
/// present data node scored from scratch by a loop of its own) — the
/// randomized-test oracle and bench_health_scan's full-rescan baseline. `missing` lists the
/// missing keys, taken from the store or a set the caller keeps, never
/// from the monitor under test; duplicates and keys outside the lattice
/// are ignored. Output order matches HealthMonitor::worst.
std::vector<BlockHealth> compute_degraded_full(
    const CodeParams& params, std::uint64_t n_nodes,
    const std::vector<BlockKey>& missing);

}  // namespace aec::obs
