// Block storage abstraction. The codec is storage-agnostic (paper §III-B
// "Implementation Details": client-, middleware- or backend-based), and
// every store holds one contract: put, get_copy, get_batch, contains and
// erase are each safe from any thread, and every read hands out a copy.
// What stays in memory is each store's own business: no caller warms or
// drops a cache. The implementations (pipeline::ConcurrentBlockStore,
// FileBlockStore, cluster::ClusterStore, and the paper's applications
// under store/) live in their own headers; the general-purpose ones are
// constructed by name through the StoreRegistry.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/codec/block_key.h"

namespace aec {

/// Abstract key→block store.
class BlockStore {
 public:
  /// Presence-mutation observer: put() reports (key, true), a successful
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

  /// Inserts or overwrites a block.
  virtual void put(const BlockKey& key, Bytes value) = 0;

  /// Copies the payload out under the store's own synchronization, or
  /// nullopt when the block is missing — the point read, which is what
  /// lets parallel repair workers read while other workers write.
  virtual std::optional<Bytes> get_copy(const BlockKey& key) const = 0;

  /// Not a read: no store implements it, and the base throws CheckError
  /// (read through get_copy() or get_batch()). It stays declared only
  /// because the benchmark's TimedStore decorator overrides it.
  virtual const Bytes* find(const BlockKey& key) const;

  virtual bool contains(const BlockKey& key) const = 0;

  /// Removes a block (models loss/unavailability). Returns true if it
  /// was present.
  virtual bool erase(const BlockKey& key) = 0;

  virtual std::uint64_t size() const = 0;

  /// Batch read: one payload (or nullopt) per key, in key order.
  /// Same presence semantics as get_copy() per key; stores with internal
  /// sharding override it to group the keys per shard and amortize
  /// lock/IO round trips. Duplicate keys are allowed and resolved
  /// independently.
  virtual std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const;

  /// Batch write, equivalent to put() per item in order. Sharded stores
  /// override it to take each shard lock once per batch.
  virtual void put_batch(std::vector<std::pair<BlockKey, Bytes>> items);

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
  /// Implementations call this from put()/erase() (under their key lock,
  /// when they have one).
  void notify(const BlockKey& key, bool present) const {
    if (observer_ != nullptr) observer_->on_block(key, present);
  }

 private:
  Observer* observer_ = nullptr;
};

}  // namespace aec
