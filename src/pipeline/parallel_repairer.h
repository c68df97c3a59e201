// Wave-parallel repair executor (paper §III-A repair rules, §V rounds,
// Table VI, Figs 11–13) — the library's one AE repair executor; a
// one-worker pool is the serial case.
//
// The RepairPlanner's waves are the repair-side analogue of the write
// planner's full-write waves: wave w contains exactly the blocks whose
// planned inputs are intact or repaired in waves < w, so the steps of a
// wave are mutually independent single XORs. This executor dispatches
// each wave across a ThreadPool with a barrier between waves. The
// RepairReport is a projection of the plan, so the repaired bytes, the
// round structure and the residue are the same at every worker count.
//
// Safety discipline (no locking on the hot path beyond the store's own):
//   · every step's inputs were chosen by the planner against wave-start
//     availability, so a worker never reads a block another wave-w worker
//     is writing;
//   · workers read through BlockStore::get_blocks() and write through
//     put_blocks(), which every store synchronizes internally. Inputs
//     are references to the Blocks the store holds; each output is a
//     fresh Block written once by the three-operand XOR kernel (a step
//     whose input is the zero block stores its other operand, shared).
//
// Error model: an exception in any step (e.g. a store write failure) is
// rethrown on the coordinator at the wave barrier; already-repaired
// blocks remain in the store and the pass aborts.
//
// Concurrency: every wave waits on its own completion group and the
// executor keeps no mutable state between calls, so several readers may
// run read_node() on one repairer at once, beside an encoder appending
// to the same store. Their plans stay valid because, while they run, the
// store only gains blocks: concurrent repairs of one block write the
// same bytes, and an append writes only keys past this repairer's
// lattice. repair_all() (scrub, rebuild) runs alone.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/block.h"
#include "core/codec/repair_planner.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"

namespace aec::pipeline {

class ParallelRepairer {
 public:
  /// Views the first n_nodes positions of an open lattice stored in
  /// `store`, repairing on the caller's worker `pool`. Both must outlive
  /// the repairer.
  ParallelRepairer(CodeParams params, std::uint64_t n_nodes,
                   std::size_t block_size, BlockStore* store,
                   ThreadPool* pool);

  /// Synchronous round-based repair of everything recoverable: plans
  /// with the shared RepairPlanner, then executes each wave across the
  /// worker pool. max_rounds caps the planned rounds (0 = unlimited).
  /// Given `missing` (every missing key in block order, as the health
  /// census walks them) the plan starts from that list — O(damage) —
  /// instead of probing the store for every lattice block; the planned
  /// waves are identical either way (see execute_repair_plan).
  RepairReport repair_all(
      std::uint32_t max_rounds = 0 /* unlimited */,
      std::optional<std::vector<BlockKey>> missing = std::nullopt);

  /// Returns the Block of d_i, repairing it through the shortest
  /// available path when missing (paper Fig 2): radius-scoped plan for
  /// the target, then the waves executed across the pool, each step
  /// reading its inputs through the store's get_blocks. Repairs are
  /// persisted to the store. Returns a null Block when d_i is
  /// irrecoverable.
  ///
  /// `lookahead` > 1 is the streamed read's window repair: when d_i is
  /// missing, every missing data block of [i, i + lookahead) (clamped to
  /// the lattice) that is one XOR away is repaired first, all in one
  /// wave — valid because each such step reads two parities present at
  /// wave start and writes its own data block. d_i is then served as
  /// above, so a d_i that needs more than one XOR still gets its radius
  /// plan. lookahead = 1 is the plain per-block read.
  Block read_node(NodeIndex i, std::size_t lookahead = 1);

  const Lattice& lattice() const noexcept { return lattice_; }
  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t thread_count() const noexcept { return pool_->thread_count(); }

 private:
  /// Dispatches one wave in contiguous chunks and waits for them (the
  /// wave's own completion group).
  void execute_wave(const std::vector<RepairStep>& wave);
  /// Worker body: steps [begin, end) of a wave, batched through the
  /// store's get_blocks/put_blocks.
  void execute_steps(const std::vector<RepairStep>& wave, std::size_t begin,
                     std::size_t end);
  void execute_plan(const RepairPlan& plan);
  /// read_node's window repair: one wave of the one-XOR steps of every
  /// missing data block in [first, first + lookahead).
  void repair_window(const RepairPlanner& planner, NodeIndex first,
                     std::size_t lookahead);

  Lattice lattice_;  // owns the CodeParams copy (lattice_.params())
  std::size_t block_size_;
  BlockStore* store_;
  ThreadPool* pool_;
  /// Global-registry metrics, resolved once at construction; observed
  /// at wave granularity (one clock pair + a few fetch_adds per wave).
  obs::Counter* waves_metric_;
  obs::Counter* steps_metric_;
  obs::Histogram* wave_us_metric_;
  obs::Histogram* wave_width_metric_;
};

}  // namespace aec::pipeline
