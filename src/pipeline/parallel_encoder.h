// Strand-scheduled entanglement (paper §III-B encoder, §V-B Fig 10
// schedule) — the library's one AE encoder; a one-worker pool is the
// serial case.
//
// Entangling d_i computes, for each of its α strands, p_{i,j} = d_i XOR
// p_{h,i}, where p_{h,i} is the strand head — the most recent parity of
// that strand instance (the zero block at strand bootstrap). Each parity
// is written once, by the three-operand XOR kernel, into a fresh Block
// that the store keeps and the head slot shares: the encoder holds
// exactly s + (α−1)·p head references (paper §IV-A) and copies no
// parity. Everything else lives in the BlockStore, and after a crash the
// heads are re-fetched from it. Each data block is copied once into a
// Block, on the pool worker that stores it, so every block a store keeps
// is allocated on a pool worker (common/block.h says why).
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
//     are resolved by the coordinator *before* workers run, in one
//     get_blocks, so workers never read the store — they only write.
// Workers write concurrently, which every store allows (each locks
// itself). A one-worker pool runs tasks in submission order, so a
// one-block batch stores its α parities in class order, then the data
// block.
//
// Error model: an exception in any task (e.g. a store write failure) is
// rethrown on the coordinator at the batch barrier. Strand tasks that
// finished before the failure have already XORed their head slots
// forward while size() has not advanced, so append_all drops the head
// cache before rethrowing: a retried batch re-fetches its heads from the
// store — parities of nodes ≤ size(), which no task of the failed batch
// wrote — and re-encodes the same positions byte-identically.
//
// Concurrency: one coordinator appends at a time (the session's one
// writer). append_all waits on its own completion group, so other
// coordinators (readers repairing on the same pool) run beside it, and
// size() may be read from any thread: it is published only once a batch
// is wholly in the store.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/block.h"
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
  /// and may be shared with other coordinators. `store` must outlive the
  /// encoder. `resume_count` > 0 resumes an existing lattice (heads
  /// re-fetched from the store between batches, on demand).
  ParallelEncoder(CodeParams params, std::size_t block_size,
                  BlockStore* store, ThreadPool* pool,
                  std::uint64_t resume_count = 0);

  /// Entangles `blocks` in order: stores each data block and its α
  /// parities, advances the strand heads. Results come back in input
  /// order, parities in class order. Throws CheckError on a block size
  /// mismatch, and rethrows a task's error with the head cache dropped
  /// (see the error model above).
  std::vector<EncodeResult> append_all(const std::vector<Bytes>& blocks);

  const CodeParams& params() const noexcept { return params_; }
  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t thread_count() const noexcept { return pool_->thread_count(); }

  /// Number of data blocks entangled so far (safe from any thread).
  std::uint64_t size() const noexcept { return count_.load(); }

  /// Open lattice over the blocks appended so far.
  Lattice lattice() const;

  /// Strand-head slots currently cached (≤ s + (α−1)·p).
  std::size_t cached_heads() const noexcept;

  /// Drops the in-memory strand heads (models a broker crash). The next
  /// batch re-fetches them from the store (paper §IV-A).
  void drop_head_cache();

 private:
  /// Head slot of a strand instance; a null Block ⇔ not cached.
  Block& head_slot(StrandClass cls, std::uint32_t strand_id) noexcept {
    return heads_[static_cast<std::size_t>(cls)][strand_id];
  }

  /// Coordinator-side cache fill of every empty head slot a batch
  /// walks. `buckets[cls][id]` lists the window offsets (from `first`)
  /// of strand instance (cls, id) in node order, so its front names the
  /// strand's recovery edge: one get_blocks fetches them all (crash
  /// recovery), and strands at bootstrap share the zero block. Runs while
  /// no worker is in flight.
  using StrandBuckets = std::vector<std::vector<std::uint32_t>>;
  void resolve_heads(const Lattice& lat, NodeIndex first,
                     const StrandBuckets (&buckets)[3]);

  CodeParams params_;
  std::size_t block_size_;
  BlockStore* store_;
  /// Written by the appending coordinator only, once a batch is stored.
  std::atomic<std::uint64_t> count_;
  /// heads_[class][strand_id]; sized s / p / p (unused classes empty).
  std::vector<Block> heads_[3];
  /// The strand-bootstrap head every fresh strand shares, built once.
  Block zero_;
  ThreadPool* pool_;
  /// Global-registry metrics, resolved once at construction; observed
  /// at batch granularity (append_all), never per block.
  obs::Counter* blocks_metric_;
  obs::Counter* batches_metric_;
  obs::Histogram* batch_us_metric_;
  obs::Histogram* batch_blocks_metric_;
};

}  // namespace aec::pipeline
