// Strand-scheduled entanglement (paper §III-B encoder, §V-B Fig 10
// schedule) — the library's one AE encoder; a one-worker pool is the
// serial case.
//
// Entangling d_i computes, for each of its α strands, p_{i,j} = d_i XOR
// p_{h,i}, where p_{h,i} is the strand head — the most recent parity of
// that strand instance (the zero block at strand bootstrap). The encoder
// keeps exactly s + (α−1)·p head blocks in memory (paper §IV-A);
// everything else lives in the BlockStore, and after a crash the heads
// are re-fetched from it.
//
// The paper's full writes seal a column's s buckets as one wave: the
// validity condition p ≥ s makes the α·s strand instances a column
// touches distinct (WritePlanner / plan_full_writes reproduce that
// schedule). append_all runs the §V-B partial-write generalization of it
// (helical parities of later columns may be computed early): with the
// whole batch in hand, each of the s + (α−1)·p strand instances is an
// independent XOR chain over read-only data blocks, so one worker task
// walks one strand across the entire window and the only barrier is at
// the end of the batch. Same operations, same per-strand order, so the
// stored bytes do not depend on the worker count or the batch split.
//
// Ownership discipline that makes that hold without any locking on the
// hot path:
//   · every strand instance has one fixed head slot (s + (α−1)·p total,
//     the paper's §IV-A memory floor); a task exclusively owns the slots
//     of the strand it walks;
//   · cache misses (fresh strands, crash recovery via drop_head_cache())
//     are resolved by the coordinator *before* workers run, so workers
//     never read the store — they only put().
// With more than one worker the store must therefore have a thread-safe
// put() (every store a session accepts does). A one-worker pool works on
// any store: the coordinator touches the store only while no task is in
// flight and waits at the batch barrier, so store access never overlaps.
// Tasks run in submission order there, so a one-block batch stores its α
// parities in class order, then the data block.
//
// Error model: an exception in any task (e.g. a store write failure) is
// rethrown on the coordinator at the batch barrier; the encoder is then
// poisoned — already-sealed buckets remain in the store, and the head
// cache must be dropped (or the encoder rebuilt) before further appends.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "core/codec/block_store.h"
#include "core/lattice/lattice.h"
#include "obs/metrics.h"
#include "pipeline/thread_pool.h"

namespace aec {

/// Outcome of entangling one data block: its lattice position plus the α
/// parities created ("sealed bucket" contents, paper §V-B).
struct EncodeResult {
  NodeIndex index = 0;
  std::vector<Edge> parities;
};

}  // namespace aec

namespace aec::pipeline {

class ParallelEncoder {
 public:
  /// Runs on the caller's worker `pool`, which must outlive the encoder
  /// and must not be waited on concurrently by another coordinator during
  /// append_all (wait_idle is pool-global). `store` must outlive the
  /// encoder and needs a thread-safe put() when the pool has more than
  /// one worker. `resume_count` > 0 resumes an existing lattice (heads
  /// re-fetched from the store between batches, on demand).
  ParallelEncoder(CodeParams params, std::size_t block_size,
                  BlockStore* store, ThreadPool* pool,
                  std::uint64_t resume_count = 0);

  /// Entangles `blocks` in order: stores each data block and its α
  /// parities, advances the strand heads. Results come back in input
  /// order, parities in class order. Throws CheckError on a block size
  /// mismatch.
  std::vector<EncodeResult> append_all(const std::vector<Bytes>& blocks);

  const CodeParams& params() const noexcept { return params_; }
  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t thread_count() const noexcept { return pool_->thread_count(); }

  /// Number of data blocks entangled so far.
  std::uint64_t size() const noexcept { return count_; }

  /// Open lattice over the blocks appended so far.
  Lattice lattice() const;

  /// Strand-head slots currently cached (≤ s + (α−1)·p).
  std::size_t cached_heads() const noexcept;

  /// Drops the in-memory strand heads (models a broker crash). The next
  /// batch re-fetches them from the store (paper §IV-A).
  void drop_head_cache();

 private:
  /// Head slot of a strand instance; empty Bytes ⇔ not cached
  /// (block_size is always positive, so empty is unambiguous).
  Bytes& head_slot(StrandClass cls, std::uint32_t strand_id) noexcept {
    return heads_[static_cast<std::size_t>(cls)][strand_id];
  }

  /// Coordinator-side cache fill for node i's strand on `cls`: store
  /// fetch on crash recovery, zero block on strand bootstrap. Runs
  /// while no worker is in flight.
  void resolve_head(const Lattice& lat, NodeIndex i, StrandClass cls);

  CodeParams params_;
  std::size_t block_size_;
  BlockStore* store_;
  std::uint64_t count_ = 0;
  /// heads_[class][strand_id]; sized s / p / p (unused classes empty).
  std::vector<Bytes> heads_[3];
  ThreadPool* pool_;
  /// Global-registry metrics, resolved once at construction; observed
  /// at batch granularity (append_all), never per block.
  obs::Counter* blocks_metric_;
  obs::Counter* batches_metric_;
  obs::Histogram* batch_us_metric_;
  obs::Histogram* batch_blocks_metric_;
};

}  // namespace aec::pipeline
