// Sharded durable block store: N directory shards, each with its own
// mutex, presence index and payload cache.
//
// This is the file-backed analogue of pipeline::ConcurrentBlockStore's
// striped locking: concurrent pipeline workers contend only when their
// keys hash to the same shard, unlike FileBlockStore, whose single mutex
// serializes every file put/read.
// The batch overrides (get_batch/put_batch) group keys per shard so one
// wave's worth of repair I/O takes each shard lock once instead of once
// per block — the access pattern of log-structured/sharded archival
// stores (f4, LFS) applied to the lattice.
//
// Layout: <root>/shard<k>/d/<index> and <root>/shard<k>/p/<class>/<index>
// with k = mixed key hash mod shard count. The count is pinned in
// <root>/shards.txt at creation, so later opens address the same files no
// matter what count they ask for (the manifest-recorded spec normally
// matches anyway). Like FileBlockStore, the per-shard index is built at
// open and payloads are read lazily and cached until the key mutates or
// drop_payload_cache() runs.
//
// Write-behind (default on; sharded(N,sync) disables): put/put_batch
// update the shard's index and payload cache immediately and enqueue the
// file write on a bounded per-shard queue drained by that shard's flusher
// thread, so ingest callers pay a memcpy instead of an ofstream
// open/write/close per block. Consistency is preserved by the invariant
// "unflushed block ⊆ payload cache": readers hit the cache before any
// file probe, and every operation that drops or bypasses the cache
// (drop_payload_cache, rescan, erase, destruction) first drains the
// queue. The destructor also ends with one syncfs barrier over the
// archive's filesystem — same durability point a caller previously got
// from per-put ofstreams (which never fsync'd either), at a fraction of
// the cost of per-file fdatasync.
#pragma once

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "core/codec/block_store.h"
#include "obs/metrics.h"

namespace aec {

class ShardedFileBlockStore final : public BlockStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;
  /// Per-shard write-behind bound, in blocks. At 4 KiB blocks this caps
  /// buffered-but-unflushed data at 1 MiB per shard; producers that
  /// outrun the flusher block on put until it drains below the bound.
  static constexpr std::size_t kMaxQueuedBlocksPerShard = 256;

  /// Opens (creating directories if needed) an archive rooted at `root`
  /// with `shards` directory shards. An existing root keeps the shard
  /// count it was created with. `write_behind` selects queued flusher
  /// writes (default) vs. synchronous in-lock writes.
  explicit ShardedFileBlockStore(std::filesystem::path root,
                                 std::size_t shards = kDefaultShards,
                                 bool write_behind = true);
  ~ShardedFileBlockStore() override;

  void put(const BlockKey& key, Bytes value) override;
  /// The pointer stays valid until *that key* is erased/overwritten or
  /// the payload cache is dropped; with concurrent mutators prefer
  /// get_copy()/get_batch().
  const Bytes* find(const BlockKey& key) const override;
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override;
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override;
  /// Loads the given blocks into their shards' payload caches.
  void prefetch(const std::vector<BlockKey>& keys) const override;
  bool thread_safe() const noexcept override { return true; }
  void drop_payload_cache() const override;

  const std::filesystem::path& root() const noexcept { return root_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  bool write_behind() const noexcept { return write_behind_; }

  /// Blocks until every queued write has reached its file (no durability
  /// barrier; see the destructor for the syncfs point). No-op in sync
  /// mode. Throws CheckError if any flusher write has failed.
  void flush_writes() const;
  void flush() const override { flush_writes(); }

  /// Re-scans every shard's directory tree (picks up external
  /// additions/removals). The observer is not notified of the diff;
  /// reseed any availability index afterwards.
  void rescan() override;

  /// Visits keys one shard at a time, under that shard's lock.
  /// Concurrent mutators may slip between shards.
  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override;

  /// Filesystem path of a block (inside its shard).
  std::filesystem::path path_of(const BlockKey& key) const;

 private:
  struct Shard;

  std::size_t shard_index(const BlockKey& key) const noexcept;
  Shard& shard_of(const BlockKey& key) const noexcept;
  /// Resolves one key inside `shard` (cache or disk); caller holds the
  /// shard lock. Returns nullptr when missing or unreadable.
  const Bytes* resolve_locked(Shard& shard, const BlockKey& key) const;
  /// Applies one put inside `shard` — synchronous file write in sync
  /// mode, enqueue (with backpressure wait on `lock`) in write-behind
  /// mode — and updates the shard's index/cache.
  void put_locked(Shard& shard, std::unique_lock<std::mutex>& lock,
                  const BlockKey& key, Bytes value);
  /// Waits (on `lock`) until `shard` has no queued or in-flight write.
  void drain_locked(Shard& shard, std::unique_lock<std::mutex>& lock) const;
  /// Per-shard flusher thread body (write-behind mode only).
  void flusher_main(Shard& shard);
  /// Throws CheckError if a flusher write has failed.
  void check_wb_healthy() const;

  std::filesystem::path root_;
  bool write_behind_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set by a flusher on its first failed write; surfaced as CheckError
  /// at the next mutation / flush / close instead of crashing the
  /// flusher thread.
  mutable std::atomic<bool> wb_failed_{false};
  /// Global-registry metrics, resolved once at construction. Hit/miss
  /// tallies are per present-key payload resolution (cache vs disk);
  /// batch histograms record request sizes in blocks.
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Histogram* get_batch_blocks_;
  obs::Histogram* put_batch_blocks_;
  /// Write-behind: current queued-but-unflushed blocks across shards,
  /// and total blocks the flushers have written.
  obs::Gauge* wb_queue_blocks_;
  obs::Counter* wb_flushed_blocks_;
};

}  // namespace aec
