// Durable block store: one file per block, in one of two on-disk
// layouts — human-inspectable and rsync-friendly, which suits the
// archival setting the paper targets.
//
//   flat    (`file`)       <root>/d/<index>, <root>/p/<class>/<index>
//   sharded (`sharded(N)`) <root>/shard<k>/d/<index>,
//                          <root>/shard<k>/p/<class>/<index>
//
// Both are the same machinery: N directory shards, each with its own
// mutex, presence index and payload cache; the flat layout is one shard
// whose directory is the root itself. In the sharded layout k = mixed
// key hash mod N, so concurrent pipeline workers contend only when their
// keys land on the same shard (the file-backed analogue of
// pipeline::ConcurrentBlockStore's striped locking), and the batch
// overrides take each shard lock once per batch instead of once per
// block. The count is pinned in <root>/shards.txt at creation, so later
// opens address the same files no matter what count they ask for (the
// manifest-recorded spec normally matches anyway). The index is built
// at open so contains() stays cheap; payloads are read lazily and cached
// until the key mutates or drop_payload_cache() runs. Individual block
// files can be deleted or corrupted externally and then repaired through
// the lattice.
//
// Write-behind (the sharded default; `file` and sharded(N,sync) write
// synchronously): put/put_batch update the shard's index and payload
// cache immediately and enqueue the file write on a bounded per-shard
// queue drained by that shard's flusher thread, so ingest callers pay a
// memcpy instead of an open/write/close per block. Consistency is
// preserved by the invariant "unflushed block ⊆ payload cache": readers
// hit the cache before any file probe, and every operation that drops or
// bypasses the cache (drop_payload_cache, rescan, erase, destruction)
// first drains the queue. The destructor then ends with one syncfs over
// the archive's filesystem, at a fraction of the cost of per-file
// fdatasync; synchronous writes are never fsync'd.
#pragma once

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "core/codec/block_store.h"
#include "obs/metrics.h"

namespace aec {

class FileBlockStore final : public BlockStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;
  /// Upper bound on the shard count, for a spec and for a pinned marker.
  static constexpr std::size_t kMaxShards = 4096;
  /// Per-shard write-behind bound, in blocks. At 4 KiB blocks this caps
  /// buffered-but-unflushed data at 1 MiB per shard; producers that
  /// outrun the flusher block on put until it drains below the bound.
  static constexpr std::size_t kMaxQueuedBlocksPerShard = 256;

  /// Opens (creating directories if needed) a flat-layout archive rooted
  /// at `root`, with synchronous writes.
  explicit FileBlockStore(std::filesystem::path root);
  /// Opens (creating directories if needed) a sharded-layout archive
  /// rooted at `root` with `shards` (1..kMaxShards) directory shards. An
  /// existing root keeps the shard count it was created with.
  /// `write_behind` selects queued flusher writes vs. synchronous
  /// in-lock writes.
  FileBlockStore(std::filesystem::path root, std::size_t shards,
                 bool write_behind = true);
  ~FileBlockStore() override;

  void put(const BlockKey& key, Bytes value) override;
  /// The pointer stays valid until *that key* is erased/overwritten or
  /// the payload cache is dropped; with concurrent mutators prefer
  /// get_copy()/get_batch().
  const Bytes* find(const BlockKey& key) const override;
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  /// Streaming batch read: cache hits are copied out, misses are read
  /// with raw file I/O and NOT inserted into the cache (see the
  /// BlockStore caching contract).
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override;
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override;
  /// Loads the given blocks into their shards' payload caches.
  void prefetch(const std::vector<BlockKey>& keys) const override;
  bool thread_safe() const noexcept override { return true; }
  /// Drops the payload caches (the index stays), draining queued writes
  /// first.
  void drop_payload_cache() const override;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  bool write_behind() const noexcept { return write_behind_; }

  /// Blocks until every queued write has reached its file (no durability
  /// barrier; see the destructor for the syncfs point). No-op with
  /// synchronous writes. Throws CheckError if any flusher write has
  /// failed.
  void flush() const override;

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

  /// Creates each shard directory's d/ and p/<class>/ trees, indexes
  /// them, and starts the flushers in write-behind mode.
  void open_shards(const std::vector<std::filesystem::path>& dirs);
  std::size_t shard_index(const BlockKey& key) const noexcept;
  Shard& shard_of(const BlockKey& key) const noexcept;
  /// Resolves one key inside `shard` (cache or disk); caller holds the
  /// shard lock. Returns nullptr when missing or unreadable.
  const Bytes* resolve_locked(Shard& shard, const BlockKey& key) const;
  /// Applies one put inside `shard` — synchronous file write, or enqueue
  /// (with backpressure wait on `lock`) in write-behind mode — and
  /// updates the shard's index/cache.
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
  /// Global-registry metrics (named store.sharded.* for both layouts).
  /// Hit/miss tallies are per present-key payload resolution (cache vs
  /// disk); batch histograms record request sizes in blocks.
  obs::Counter* cache_hits_ =
      obs::MetricsRegistry::global().counter("store.sharded.cache_hits");
  obs::Counter* cache_misses_ =
      obs::MetricsRegistry::global().counter("store.sharded.cache_misses");
  obs::Histogram* get_batch_blocks_ = obs::MetricsRegistry::global().histogram(
      "store.sharded.get_batch_blocks", obs::Histogram::size_bounds());
  obs::Histogram* put_batch_blocks_ = obs::MetricsRegistry::global().histogram(
      "store.sharded.put_batch_blocks", obs::Histogram::size_bounds());
  /// Write-behind: current queued-but-unflushed blocks across shards,
  /// and total blocks the flushers have written.
  obs::Gauge* wb_queue_blocks_ =
      obs::MetricsRegistry::global().gauge("store.sharded.wb_queue_blocks");
  obs::Counter* wb_flushed_blocks_ = obs::MetricsRegistry::global().counter(
      "store.sharded.wb_flushed_blocks");
};

}  // namespace aec
