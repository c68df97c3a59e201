// Block storage abstraction. The codec is storage-agnostic (paper §III-B
// "Implementation Details": client-, middleware- or backend-based), and
// every store holds one contract: its Block methods. put_block and
// put_blocks store a shared, immutable Block (common/block.h);
// get_blocks answers with references to the Blocks the store holds (a
// file-backed store reads a missing-from-memory block into a fresh one);
// contains and erase complete it. Each is safe from any thread, and a
// Block read stays valid whatever the store does next. What stays in
// memory is each store's own business: no caller warms or drops a cache.
//
// The Bytes methods (put, put_batch, get_copy, get_batch) are edge
// adapters for callers that hold std::vector payloads. No session calls
// them: the AE and striped sessions read and write Blocks only. In the
// library only the paper's applications under store/ still use them —
// the geo-backup and RAID-AE stores implement them, and their
// Broker::read_block and RaidAeArray::degraded_read read through
// get_copy — besides tests and benches. They stay virtual because the
// benchmark's TimedStore decorator (perfbench/timed_store.h) overrides
// them, as it does find, thread_safe, prefetch and drop_payload_cache.
// Every library store derives from BlockNativeStore:
// it implements the Block methods, and BlockNativeStore turns each Bytes
// method into a one-line adapter over them. A store that implements only
// the Bytes methods (that decorator, the paper's applications under
// store/) inherits Block methods that forward batch for batch:
// put_blocks is one put_batch, get_blocks one get_batch whose payloads
// are adopted. put and get_copy stay pure in BlockStore, so no store can
// inherit a cycle of defaults.
//
// The implementations (pipeline::ConcurrentBlockStore, FileBlockStore,
// cluster::ClusterStore, and the paper's applications under store/) live
// in their own headers; the general-purpose ones are constructed by name
// through the StoreRegistry.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/block.h"
#include "common/bytes.h"
#include "core/codec/block_key.h"

namespace aec {

/// Abstract key→block store.
class BlockStore {
 public:
  /// Presence-mutation observer: a write reports (key, true), a successful
  /// erase() reports (key, false). Thread-safe stores fire it under their
  /// internal key lock, so notifications for one key arrive in mutation
  /// order; the observer must itself be safe to call from every thread
  /// that mutates the store and must not reenter the store. The archive's
  /// observer is its health census (obs::HealthMonitor), its one record
  /// of which blocks are missing.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_block(const BlockKey& key, bool present) = 0;
  };

  virtual ~BlockStore() = default;

  // --- the contract: Blocks ------------------------------------------------

  /// Inserts or overwrites a block; the store keeps a reference to
  /// `value` (no copy). A null `value` throws CheckError: a missing
  /// block is one never put or erased, never a stored null. Default:
  /// put() of a copy.
  virtual void put_block(const BlockKey& key, Block value);

  /// Batch write, equivalent to put_block() per item in order (so a
  /// null item throws; items before it may have been stored). Sharded
  /// stores take each shard lock once per batch. Default: one
  /// put_batch() of copies.
  virtual void put_blocks(std::vector<std::pair<BlockKey, Block>> items);

  /// Batch read: one Block per key, in key order — a reference to what
  /// the store holds, or null when the block is missing. Duplicate keys
  /// are allowed and resolved independently. Sharded stores group the
  /// keys per shard. Default: one get_batch(), its payloads adopted.
  virtual std::vector<Block> get_blocks(
      const std::vector<BlockKey>& keys) const;

  /// get_blocks() of one key.
  Block get_block(const BlockKey& key) const;

  virtual bool contains(const BlockKey& key) const = 0;

  /// Removes a block (models loss/unavailability). Returns true if it
  /// was present.
  virtual bool erase(const BlockKey& key) = 0;

  virtual std::uint64_t size() const = 0;

  // --- Bytes edge adapters -------------------------------------------------

  /// Inserts or overwrites a block.
  virtual void put(const BlockKey& key, Bytes value) = 0;

  /// A copy of the payload, or nullopt when the block is missing.
  virtual std::optional<Bytes> get_copy(const BlockKey& key) const = 0;

  /// Batch read of copies: one payload (or nullopt) per key, in key
  /// order, duplicates resolved independently. Default: get_copy() per
  /// key.
  virtual std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const;

  /// Batch write, equivalent to put() per item in order. Default: put()
  /// per item.
  virtual void put_batch(std::vector<std::pair<BlockKey, Bytes>> items);

  // --- declared for the benchmark's decorator ------------------------------

  /// Not a read: no store implements it, and the base throws CheckError
  /// (read through get_blocks()). It stays declared only because the
  /// benchmark's TimedStore decorator overrides it.
  virtual const Bytes* find(const BlockKey& key) const;

  /// Not called by anything, and no library store overrides it: a no-op
  /// kept declared only because the benchmark's TimedStore decorator
  /// overrides it.
  virtual void prefetch(const std::vector<BlockKey>& keys) const {
    (void)keys;
  }

  /// True when every operation is safe to call concurrently; every store
  /// in the library answers true. Engine::open_session accepts only
  /// stores answering true.
  virtual bool thread_safe() const noexcept { return false; }

  /// Not called by anything, and no library store overrides it: a no-op
  /// kept declared only because the benchmark's TimedStore decorator
  /// overrides it.
  virtual void drop_payload_cache() const {}

  // --- the rest ------------------------------------------------------------

  /// Blocks until buffered mutations reach the store's backing medium so
  /// an independent open of the same root sees them (write-behind stores
  /// drain their queues; everything else is already authoritative). Not a
  /// durability barrier — no fsync implied. No-op by default.
  virtual void flush() const {}

  /// Visits every stored key (presence only, no payload I/O) and returns
  /// true; returns false without calling `fn` when the store cannot
  /// enumerate its keys. The callback must not mutate the store;
  /// thread-safe stores may hold internal locks while it runs. This is
  /// what lets the cluster layer announce a whole failure domain's worth
  /// of keys to the observer (the health census) at fail/heal time.
  virtual bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const {
    (void)fn;
    return false;
  }

  /// Re-reads authoritative presence state (durable stores re-scan their
  /// directory tree, picking up external additions/removals). The
  /// observer is NOT notified of the diff; reseed the observer's census
  /// afterwards (Archive::reindex does both). No-op for stores whose
  /// in-memory state is authoritative.
  virtual void rescan() {}

  /// Registers (or, with nullptr, clears) the mutation observer. Wrapper
  /// stores forward to their delegate so each mutation notifies exactly
  /// once (and answer observer() from the delegate too). Set it while no
  /// mutation is in flight.
  virtual void set_observer(Observer* observer) { observer_ = observer; }
  virtual Observer* observer() const { return observer_; }

 protected:
  /// Implementations call this from their writes and erase() (under their
  /// key lock, when they have one).
  void notify(const BlockKey& key, bool present) const {
    if (observer_ != nullptr) observer_->on_block(key, present);
  }

 private:
  Observer* observer_ = nullptr;
};

/// A store whose Block methods are its own: it implements put_block,
/// put_blocks and get_blocks, and each Bytes method adapts them — a
/// write adopts the caller's vector (no copy), a read copies the Block
/// out (null → nullopt). So the store keeps one read path and one write
/// path.
class BlockNativeStore : public BlockStore {
 public:
  void put_block(const BlockKey& key, Block value) override = 0;
  void put_blocks(std::vector<std::pair<BlockKey, Block>> items) override = 0;
  std::vector<Block> get_blocks(
      const std::vector<BlockKey>& keys) const override = 0;

  void put(const BlockKey& key, Bytes value) final;
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) final;
  std::optional<Bytes> get_copy(const BlockKey& key) const final;
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const final;
};

}  // namespace aec
