// The in-memory BlockStore — the "mem" store family, the staging
// overlay of a down cluster node, and the scratch store of the one-shot
// AeCodec::encode/repair.
//
// ConcurrentBlockStore shards keys across kStripes striped-lock buckets,
// each in its own allocation, so the concurrent strand walks of one
// encode batch (paper §V-B) rarely contend: two puts serialize only when
// their keys hash to the same stripe. It holds Blocks: a write keeps a
// reference to the caller's Block, and a read hands out a reference
// under its stripe's lock — no payload byte is copied either way. The
// Bytes methods adapt those.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/codec/block_store.h"

namespace aec::pipeline {

class ConcurrentBlockStore final : public BlockNativeStore {
 public:
  ConcurrentBlockStore();
  ~ConcurrentBlockStore() override;

  void put_block(const BlockKey& key, Block value) override;
  void put_blocks(std::vector<std::pair<BlockKey, Block>> items) override;
  std::vector<Block> get_blocks(
      const std::vector<BlockKey>& keys) const override;

  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;
  bool thread_safe() const noexcept override { return true; }

  /// Visits every stored pair, one stripe at a time. The callback must
  /// not reenter the store. Concurrent writers may slip between stripes;
  /// for an exact snapshot, quiesce writers first.
  void for_each(
      const std::function<void(const BlockKey&, BytesView)>& fn) const;

  /// Moves every pair out, one stripe at a time, and leaves the store
  /// empty. Sends no notification: the caller hands the blocks on to a
  /// store that announces them. Quiesce writers first.
  std::vector<std::pair<BlockKey, Block>> take_all();

  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override;

 private:
  /// Lock stripes (a power of two: mask-based stripe pick).
  static constexpr std::size_t kStripes = 16;

  struct Stripe;
  Stripe& stripe_of(const BlockKey& key) const noexcept;

  std::array<std::unique_ptr<Stripe>, kStripes> stripes_;
};

}  // namespace aec::pipeline
