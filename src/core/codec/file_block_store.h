// Durable block store: one file per block, in one of two on-disk
// layouts — human-inspectable and rsync-friendly, which suits the
// archival setting the paper targets.
//
//   flat    (`file`)       <root>/d/<index>, <root>/p/<class>/<index>
//   sharded (`sharded(N)`) <root>/shard<k>/d/<index>,
//                          <root>/shard<k>/p/<class>/<index>
//
// Both are the same machinery: N directory shards, each with its own
// mutex, presence index and ring of recent writes; the flat layout is one
// shard whose directory is the root itself. In the sharded layout k =
// mixed key hash mod N, so concurrent pipeline workers contend only when
// their keys land on the same shard (the file-backed analogue of
// pipeline::ConcurrentBlockStore's striped locking), and the batch
// overrides take each shard lock once per batch instead of once per
// block. The count is pinned in <root>/shards.txt at creation, so later
// opens address the same files no matter what count they ask for (the
// manifest-recorded spec normally matches anyway). The index is built
// at open so contains() stays cheap. Individual block files can be
// deleted or corrupted externally and then repaired through the lattice.
//
// Memory: the store alone decides which block bytes stay resident. Each
// shard keeps its last kRingBlocksPerShard writes, in write order, and
// nothing else: a read is a ring hit or a read of the block file, and no
// read adds to the ring. A store therefore holds at most
// kRingBlocksPerShard × shards blocks (1 MiB for `file`, 8 MiB for
// sharded(8) at 4 KiB blocks) however much a scrub, rebuild or degraded
// read touches, while a repair wave still finds in memory what the waves
// just before it wrote (AE's one-XOR locality).
//
// Write-behind (the sharded default; `file` and sharded(N,sync) write
// synchronously): the ring's unflushed tail is the write queue, drained
// in write order by the shard's flusher thread, so ingest callers pay a
// memcpy instead of an open/write/close per block; a put waits while
// kRingBlocksPerShard writes are unflushed. Only flushed writes are
// evicted, so an unflushed block is always served from the ring. The
// flusher writes an entry only while it is its key's newest (an
// overwritten or erased write never reaches its file); erase waits out an
// in-flight write of its key, and rescan and destruction drain first. The
// destructor then ends with one syncfs over the archive's filesystem, at
// a fraction of the cost of per-file fdatasync; synchronous writes are
// never fsync'd.
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
  /// Per-shard ring of recent writes, in blocks: at 4 KiB blocks 1 MiB
  /// per shard. It is also the write-behind bound: producers that outrun
  /// the flusher block on put while this many writes are unflushed.
  static constexpr std::size_t kRingBlocksPerShard = 256;

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
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;
  /// A ring hit, or else the block file; inserts nothing.
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  /// get_copy() per key, taking each shard lock once per batch.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override;
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override;
  bool thread_safe() const noexcept override { return true; }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  bool write_behind() const noexcept { return write_behind_; }

  /// Blocks until every queued write has reached its file (no durability
  /// barrier; see the destructor for the syncfs point). No-op with
  /// synchronous writes. Throws CheckError if any flusher write has
  /// failed.
  void flush() const override;

  /// Re-scans every shard's directory tree (picks up external
  /// additions/removals) after draining queued writes, and empties the
  /// rings, so an externally deleted block is no longer served from
  /// memory. The observer is not notified of the diff; reseed its census
  /// afterwards.
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
  /// Reads one key inside `shard` (ring, else its file); caller holds
  /// the shard lock. Returns nullopt when missing or unreadable.
  std::optional<Bytes> read_locked(const Shard& shard,
                                   const BlockKey& key) const;
  /// Applies one put inside `shard` — synchronous file write, or (with
  /// backpressure wait on `lock`) a queued one in write-behind mode —
  /// and records it in the shard's index and ring.
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
  /// The hit/miss tallies count present-key reads served from the ring
  /// vs read from block files; batch histograms record request sizes in
  /// blocks.
  obs::Counter* ring_hits_ =
      obs::MetricsRegistry::global().counter("store.sharded.cache_hits");
  obs::Counter* file_reads_ =
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
