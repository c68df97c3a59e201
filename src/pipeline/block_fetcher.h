// Bounded-lookahead block prefetcher: the read path's pipelining core.
//
// A BlockFetcher walks a fixed key run (a file's block range, a repair
// plan's input list) through a sliding window: up to `window` blocks
// ahead of the consumer are grouped into `batch`-sized get_batch() calls
// and dispatched to the Engine's shared ThreadPool, so store I/O (one
// file open/read per block on file/sharded/cluster backends) overlaps
// with the consumer's copy-out and XOR repair work — the pipelined
// decoding idea of RapidRAID (PAPERS.md) applied to plain reads. Without
// a pool the win survives as batched syscalls and one store lock per
// batch instead of per block.
//
// Refill is whole batches only (the run's tail excepted): the window is
// topped up once a full batch fits, never block by block, so a run
// longer than its window keeps `batch`-block tasks in the pool instead
// of trickling out one-block ones as the consumer advances.
//
// Concurrency/error model: each in-flight batch owns its own
// mutex/cv/result slots inside a shared_ptr; pool tasks touch only that
// batch and the store, never the fetcher, so destroying the fetcher
// mid-run is safe (the destructor still drains in-flight batches so the
// store cannot be torn down under a task). A store exception is captured
// in its batch and rethrown from the next() that consumes it — it never
// reaches ThreadPool::wait_idle(), so a concurrent scrub on the same
// pool cannot observe another session's read failure.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/codec/block_store.h"
#include "obs/metrics.h"

namespace aec::pipeline {

class ThreadPool;

class BlockFetcher {
 public:
  struct Options {
    /// Max blocks fetched (or in flight) ahead of the consumer.
    std::size_t window = 64;
    /// Blocks per get_batch() dispatch; clamped to the window.
    std::size_t batch = 16;
  };

  /// Key i of a run, produced on demand.
  using KeyAt = std::function<BlockKey(std::size_t)>;

  /// `store` must stay alive until the fetcher is destroyed (the
  /// destructor drains in-flight batches, so pool tasks cannot outlive
  /// it). A null `pool` degrades to synchronous batched reads — still
  /// one store round-trip per batch, just no overlap.
  BlockFetcher(const BlockStore& store, ThreadPool* pool,
               std::vector<BlockKey> keys, Options options);
  BlockFetcher(const BlockStore& store, ThreadPool* pool,
               std::vector<BlockKey> keys)
      : BlockFetcher(store, pool, std::move(keys), Options()) {}
  /// A run of `size` keys computed by `key_at` as the window reaches
  /// them, so a long run (every data block of a file) never
  /// materializes its key list.
  BlockFetcher(const BlockStore& store, ThreadPool* pool, std::size_t size,
               KeyAt key_at, Options options);
  ~BlockFetcher();

  BlockFetcher(const BlockFetcher&) = delete;
  BlockFetcher& operator=(const BlockFetcher&) = delete;

  /// Payload of the next key in the run (nullopt = block missing from
  /// the store — the caller decides whether that means repair-on-read
  /// or data loss). Tops the window up before blocking on the front
  /// batch; rethrows a store exception captured by that batch's task.
  /// Must not be called past the end of the run.
  std::optional<Bytes> next();

  std::size_t size() const noexcept { return size_; }
  std::size_t consumed() const noexcept { return consumed_; }
  bool exhausted() const noexcept { return consumed_ == size_; }

 private:
  struct Batch;

  /// Issues whole batches while one fits in the window (a shorter final
  /// batch for the run's tail).
  void fill_window();

  const BlockStore& store_;
  ThreadPool* pool_;
  std::size_t size_;  // declared before key_at_, which may take the keys
  KeyAt key_at_;
  Options opt_;
  std::size_t issued_ = 0;    // keys dispatched into batches
  std::size_t consumed_ = 0;  // keys returned by next()
  std::deque<std::shared_ptr<Batch>> inflight_;
  std::size_t front_pos_ = 0;  // next result slot in inflight_.front()

  /// Global-registry metrics, resolved once at construction:
  /// issued/hit/wasted are in blocks (hit = batch already complete when
  /// next() asked for it, wasted = fetched but never consumed);
  /// lookahead_depth samples issued-minus-consumed at each next();
  /// fetch_wait_us samples only the next() calls that actually blocked.
  obs::Counter* issued_blocks_ =
      obs::MetricsRegistry::global().counter("read.prefetch.issued");
  obs::Counter* hit_blocks_ =
      obs::MetricsRegistry::global().counter("read.prefetch.hit");
  obs::Counter* wasted_blocks_ =
      obs::MetricsRegistry::global().counter("read.prefetch.wasted");
  obs::Histogram* lookahead_depth_ = obs::MetricsRegistry::global().histogram(
      "read.prefetch.lookahead_depth", obs::Histogram::size_bounds());
  obs::Histogram* fetch_wait_us_ = obs::MetricsRegistry::global().histogram(
      "read.prefetch.fetch_wait_us", obs::Histogram::latency_bounds_us());
};

}  // namespace aec::pipeline
