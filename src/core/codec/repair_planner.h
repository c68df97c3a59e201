// Repair planning, separated from repair execution (mirror of the
// WritePlanner on the write path).
//
// The paper's central repair claim (§V, Table VI, Figs 11–13) is about
// *rounds*: multi-failure recovery proceeds in synchronous rounds, and
// within one round every repair depends only on blocks available at round
// start — so a round is an embarrassingly parallel wave. The planner makes
// that structure explicit: given the lattice's Availability, it computes
// dependency-ordered repair waves (wave w contains exactly the blocks
// whose inputs are intact or repaired in waves < w) plus the residue that
// no wave can reach. A plan always runs to that fixpoint (only the read
// path's target query stops early, at the wave that repairs its target),
// so the residue is exactly what is irrecoverable.
//
// Planning is a pure availability computation — no payload bytes. That is
// what lets the byte codec (ParallelRepairer; open lattices),
// the minimal-erasure analysis, the entangled mirror and the disaster
// simulation (sim::AeScheme; closed lattices) share one implementation,
// each over an Availability of its own lattice: simulated round counts
// and real repair rounds cannot drift apart. Each planned step also records
// *how* to reconstruct the block (which strand for a node, which side for
// a parity), chosen against wave-start availability, so the executor —
// at any worker count — never consults availability again and never
// reads a block written in the same wave. Any valid reconstruction path
// yields the same bytes, so the executed result does not depend on the
// path chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/codec/availability.h"
#include "core/codec/block_key.h"
#include "core/codec/block_store.h"
#include "core/lattice/lattice.h"

namespace aec {

/// Which parities a repair pass regenerates (paper §V-C-2).
enum class RepairPolicy {
  kFull,     ///< repair every recoverable block
  kMinimal,  ///< parities only while adjacent to a missing data block
};

/// One planned reconstruction: a single XOR of two blocks, both available
/// before the step's wave starts.
struct RepairStep {
  BlockKey key;
  /// Nodes: the strand class whose two incident parities are used.
  /// Parities: the class is key.edge().cls; `via` mirrors it.
  StrandClass via{StrandClass::kHorizontal};
  /// Parities only: reconstruct from the head side (d_j XOR p_{j,k})
  /// instead of the tail side (d_i XOR p_{h,i}).
  bool from_head = false;
};

/// Dependency-ordered repair schedule.
struct RepairPlan {
  /// waves[w]: blocks repairable in synchronous round w+1. Within a wave
  /// every step reads only blocks available before the wave — steps are
  /// mutually independent and may run concurrently.
  std::vector<std::vector<RepairStep>> waves;
  /// Missing blocks no wave reaches: irrecoverable at the fixpoint.
  std::vector<BlockKey> residue;
  std::uint64_t nodes_planned = 0;
  std::uint64_t edges_planned = 0;

  std::uint32_t rounds() const noexcept {
    return static_cast<std::uint32_t>(waves.size());
  }
};

/// Outcome of a repair pass (planned or executed); the paper's Table VI
/// round accounting plus executor throughput.
struct RepairReport {
  /// Rounds that repaired at least one block.
  std::uint32_t rounds = 0;
  /// Blocks regenerated per round (data and parity separately).
  std::vector<std::uint64_t> nodes_repaired_per_round;
  std::vector<std::uint64_t> edges_repaired_per_round;
  std::uint64_t nodes_repaired_total = 0;
  std::uint64_t edges_repaired_total = 0;
  /// Blocks that remained missing at fixpoint (irrecoverable).
  std::uint64_t nodes_unrecovered = 0;
  std::uint64_t edges_unrecovered = 0;
  /// Executor wall time (0 when the plan was not executed).
  double wall_seconds = 0.0;

  std::uint64_t blocks_repaired_total() const noexcept {
    return nodes_repaired_total + edges_repaired_total;
  }
  double blocks_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(blocks_repaired_total()) / wall_seconds
               : 0.0;
  }
};

/// Fills the round/residue accounting of a report from a plan; the caller
/// stamps wall_seconds after executing.
RepairReport report_from_plan(const RepairPlan& plan);

/// Strand `cls` offers d_i a one-XOR repair: its output parity and its
/// input parity (the virtual zero block at an open origin counts as
/// present) are both available. d_i is repairable when some class is
/// intact; the health census's margin counts the intact classes.
template <class Avail>
bool strand_intact(const Lattice& lattice, NodeIndex i, StrandClass cls,
                   const Avail& avail) {
  if (!avail.parity_ok(lattice.output_edge(i, cls))) return false;
  const auto input = lattice.input_edge(i, cls);
  return !input || avail.parity_ok(*input);
}

class RepairPlanner {
 public:
  /// Plans over `lattice` (not owned; must outlive the planner). Works on
  /// open lattices (codec) and closed ones (simulation).
  explicit RepairPlanner(const Lattice* lattice);

  const Lattice& lattice() const noexcept { return *lattice_; }

  /// Availability of a byte store holding this lattice: one contains()
  /// probe per lattice block — O(lattice).
  Availability snapshot(const BlockStore& store) const;

  // --- availability-only repairability predicates ---------------------------

  /// d_i is one XOR away: some strand is intact (strand_intact).
  bool node_repairable(NodeIndex i, const Availability& avail) const;

  /// Computes the full wave schedule from `avail`, which must cover this
  /// lattice, up to the fixpoint: every round that repairs something.
  /// Walks its missing keys in block order, so the step order inside a
  /// wave is deterministic, and advances `avail` to the fixpoint state
  /// (useful for post-repair censuses).
  RepairPlan plan(Availability& avail,
                  RepairPolicy policy = RepairPolicy::kFull) const;

  /// Radius-scoped query for the read path (paper Fig 2): plans over an
  /// expanding BFS neighbourhood of `target`, growing the radius only
  /// when the close concentric paths are themselves damaged. Returns the
  /// waves needed to materialize d_target (truncated after the wave that
  /// repairs it; empty when it is already available), or nullopt when the
  /// target is irrecoverable. Availability is probed lazily against
  /// `store`, so the cost scales with the damaged neighbourhood, not the
  /// lattice.
  std::optional<RepairPlan> plan_for_target(const BlockStore& store,
                                            NodeIndex target) const;

  /// Single-block plan query against live store availability (lazy,
  /// local probes): the one-XOR step that would repair d_i right now, or
  /// nullopt — the read path's window repair collects these into one
  /// wave.
  std::optional<RepairStep> plan_node_repair(const BlockStore& store,
                                             NodeIndex i) const;

 private:
  const Lattice* lattice_;
};

/// The repair_all flow: fill an Availability → plan (kFull) → run every
/// wave through `run_wave` → report stamped with wall time. The map is
/// filled from `missing` when given (obs::HealthMonitor::missing_keys;
/// keys the lattice does not store are dropped), else by snapshot(), one
/// contains() probe per lattice block. The two maps are equal, so the
/// plans (and the executed bytes, waves and residue) are identical.
RepairReport execute_repair_plan(
    const RepairPlanner& planner, const BlockStore& store,
    std::optional<std::vector<BlockKey>> missing,
    const std::function<void(const std::vector<RepairStep>&)>& run_wave);

/// The two blocks a planned step XORs. `input` is nullopt at an
/// open-lattice strand bootstrap (the virtual zero block).
struct RepairStepInputs {
  std::optional<BlockKey> input;
  BlockKey other;
};

/// Resolves the keys a step reads, per its recorded strand/side choice.
RepairStepInputs repair_step_inputs(const Lattice& lattice,
                                    const RepairStep& step);

}  // namespace aec
