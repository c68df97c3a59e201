// The in-memory BlockStore — the "mem" store family and the staging
// overlay of a down cluster node.
//
// ConcurrentBlockStore finds a block by its lattice position: the paper
// numbers every block (d_i, and the α parities whose tail is i), so a
// key's index addresses a slot. Index i takes lock stripe i mod
// kStripes, so adjacent indices take different locks and the concurrent
// strand walks of one encode batch (paper §V-B) rarely contend. Each
// stripe keeps its Blocks in slot pages: a page covers one key kind
// (data, or one parity class) for kPageSlots consecutive indices of its
// stripe, and a small sorted directory per stripe finds a page by (page
// number, kind, class). A page packs the Blocks it holds behind a
// one-word occupancy bitmap, so a node that holds a sparse share of the
// indices (random placement on many nodes) pays for its blocks, not for
// the slots between them. Every int64 index (0, negative or huge) goes
// through that one path; no map node is allocated per block, and a page
// is freed when its last block is erased or taken.
//
// It holds Blocks: a write keeps a reference to the caller's Block, and
// a read hands out a reference under its stripe's lock — no payload
// byte is copied either way. An overwritten or erased Block is released
// under the lock too. The Bytes methods adapt those.
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

  /// Lock stripes; a power of two, so the stripe is the index's low bits.
  static constexpr std::size_t kStripes = 16;
  /// Slots per page: consecutive indices of one stripe (a power of two,
  /// at most 64: a page's occupancy is one word).
  static constexpr std::size_t kPageSlots = 64;

 private:
  struct Stripe;
  struct Position;
  Position position_of(const BlockKey& key) const noexcept;

  std::array<std::unique_ptr<Stripe>, kStripes> stripes_;
};

}  // namespace aec::pipeline
