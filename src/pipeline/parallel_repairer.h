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
//   · workers read through BlockStore::get_copy() and write through
//     put(), both of which thread-safe stores synchronize internally.
//     With more than one worker the store must be one of those; a
//     single-worker pool works on any store.
//
// Error model: an exception in any step (e.g. a store write failure) is
// rethrown on the coordinator at the wave barrier; already-repaired
// blocks remain in the store and the pass aborts.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "core/codec/repair_planner.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"

namespace aec::pipeline {

class ParallelRepairer {
 public:
  /// Views the first n_nodes positions of an open lattice stored in
  /// `store`, repairing on the caller's worker `pool`. Both must outlive
  /// the repairer; the store must be thread-safe when the pool has more
  /// than one worker.
  ParallelRepairer(CodeParams params, std::uint64_t n_nodes,
                   std::size_t block_size, BlockStore* store,
                   ThreadPool* pool);

  /// Synchronous round-based repair of everything recoverable: plans
  /// with the shared RepairPlanner, then executes each wave across the
  /// worker pool. max_rounds caps the planned rounds (0 = unlimited).
  RepairReport repair_all(std::uint32_t max_rounds = 0 /* unlimited */);

  /// Attaches an incrementally maintained availability index (nullptr
  /// detaches): repair_all then plans from the index's missing set —
  /// O(damage) — instead of scanning the store. The caller owns keeping
  /// the index in sync with every store mutation (Archive wires it as the
  /// store's observer); the planned waves are identical either way.
  void set_availability_index(const AvailabilityIndex* index) noexcept {
    avail_index_ = index;
  }

  /// Returns the payload of d_i, repairing it through the shortest
  /// available path when missing (paper Fig 2): radius-scoped plan for
  /// the target, the plan's pre-existing inputs prefetched into the
  /// store's cache in a few large batches, then the waves executed
  /// across the pool. Repairs are persisted to the store. Returns
  /// nullopt when the block is irrecoverable.
  ///
  /// `lookahead` > 1 is the streamed read's window repair: when d_i is
  /// missing, every missing data block of [i, i + lookahead) (clamped to
  /// the lattice) that is one XOR away is repaired first, all in one
  /// wave — valid because each such step reads two parities present at
  /// wave start and writes its own data block. d_i is then served as
  /// above, so a d_i that needs more than one XOR still gets its radius
  /// plan. lookahead = 1 is the plain per-block read.
  std::optional<Bytes> read_node(NodeIndex i, std::size_t lookahead = 1);

  const Lattice& lattice() const noexcept { return lattice_; }
  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t thread_count() const noexcept { return pool_->thread_count(); }

 private:
  /// Dispatches one wave in contiguous chunks and waits at the barrier.
  void execute_wave(const std::vector<RepairStep>& wave);
  /// Worker body: steps [begin, end) of a wave, batched through the
  /// store's get_batch/put_batch.
  void execute_steps(const std::vector<RepairStep>& wave, std::size_t begin,
                     std::size_t end);
  void execute_plan(const RepairPlan& plan);
  /// read_node's window repair: one wave of the one-XOR steps of every
  /// missing data block in [first, first + lookahead).
  void repair_window(const RepairPlanner& planner, NodeIndex first,
                     std::size_t lookahead);
  /// Warms the store cache with every plan input that pre-exists the
  /// plan (inputs produced by earlier waves are cached by their own
  /// put()). Batched so repair-on-read issues a few large reads instead
  /// of execute_wave discovering inputs one sub-batch at a time.
  void prefetch_plan_inputs(const RepairPlan& plan);

  Lattice lattice_;  // owns the CodeParams copy (lattice_.params())
  std::size_t block_size_;
  BlockStore* store_;
  const AvailabilityIndex* avail_index_ = nullptr;
  ThreadPool* pool_;
  /// Global-registry metrics, resolved once at construction; observed
  /// at wave granularity (one clock pair + a few fetch_adds per wave).
  obs::Counter* waves_metric_;
  obs::Counter* steps_metric_;
  obs::Histogram* wave_us_metric_;
  obs::Histogram* wave_width_metric_;
};

}  // namespace aec::pipeline
