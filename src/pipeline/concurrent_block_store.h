// Thread-safe in-memory BlockStore for the parallel pipeline — the "mem"
// store family, and the staging overlay of a down cluster node.
//
// ConcurrentBlockStore shards keys across striped-lock buckets, so the
// concurrent strand walks of one encode batch (paper §V-B) rarely
// contend: two puts serialize only when their keys hash to the same
// stripe. Because each stripe owns a node-based map, a pointer returned
// by find() stays valid until *that key* is erased or overwritten — a
// strictly stronger guarantee than the base interface ("until the next
// mutating call"), which concurrent writers could not honour.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>

#include "core/codec/block_store.h"

namespace aec::pipeline {

class ConcurrentBlockStore final : public BlockStore {
 public:
  static constexpr std::size_t kDefaultStripes = 16;

  /// `stripes` is rounded up to a power of two (mask-based shard pick).
  explicit ConcurrentBlockStore(std::size_t stripes = kDefaultStripes);
  ~ConcurrentBlockStore() override;

  void put(const BlockKey& key, Bytes value) override;
  const Bytes* find(const BlockKey& key) const override;
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;

  /// Copies the payload out under the stripe lock — the fully
  /// concurrent-safe read (find()'s pointer can outlive the lock).
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  bool thread_safe() const noexcept override { return true; }

  /// Visits every stored pair, one stripe at a time. The callback must
  /// not reenter the store. Concurrent writers may slip between stripes;
  /// for an exact snapshot, quiesce writers first.
  void for_each(
      const std::function<void(const BlockKey&, const Bytes&)>& fn) const;

  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override;

  std::size_t stripe_count() const noexcept { return stripes_.size(); }

 private:
  struct Stripe;
  Stripe& stripe_of(const BlockKey& key) const noexcept;

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t mask_;
};

}  // namespace aec::pipeline
