#include "pipeline/concurrent_block_store.h"

#include <algorithm>
#include <bit>
#include <compare>

#include "common/check.h"

namespace aec::pipeline {

namespace {

/// A page's directory key: one key kind (kind, class) and the index bits
/// above the stripe and slot bits. The shift is arithmetic, so negative
/// indices have pages too.
struct PageKey {
  std::int64_t number;
  BlockKey::Kind kind;
  StrandClass cls;

  friend auto operator<=>(const PageKey&, const PageKey&) = default;
};

}  // namespace

struct ConcurrentBlockStore::Stripe {
  static constexpr int kStripeBits = std::countr_zero(kStripes);
  static constexpr int kSlotBits = std::countr_zero(kPageSlots);

  /// One key kind's blocks for kPageSlots consecutive indices of the
  /// stripe. Bit s of `present` says whether slot s holds a block, and
  /// `blocks` holds those blocks packed in slot order, so slot s's block
  /// is blocks[rank(s)]: a page costs one Block per block it holds, not
  /// one per slot, however sparse a node's share of the indices is.
  struct Page {
    PageKey key;
    std::uint64_t present = 0;
    std::vector<Block> blocks;

    bool has(std::size_t slot) const noexcept {
      return (present >> slot) & 1;
    }
    std::size_t rank(std::size_t slot) const noexcept {
      return static_cast<std::size_t>(
          std::popcount(present & ((std::uint64_t{1} << slot) - 1)));
    }
  };

  explicit Stripe(std::size_t n) : number(n) {}

  std::vector<Page>::iterator lower_bound(const PageKey& key) {
    return std::lower_bound(
        pages.begin(), pages.end(), key,
        [](const Page& p, const PageKey& k) { return p.key < k; });
  }

  /// The page under `key`, or null.
  const Page* find(const PageKey& key) {
    const auto it = lower_bound(key);
    return it != pages.end() && it->key == key ? &*it : nullptr;
  }

  /// Stores `value` in `slot` of the page under `key`, adding the page
  /// when it has none; returns whether the slot was empty.
  bool put(const PageKey& key, std::size_t slot, Block value) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    auto it = lower_bound(key);
    if (it == pages.end() || it->key != key) {
      Page page{key, bit, {}};
      page.blocks.push_back(std::move(value));
      pages.insert(it, std::move(page));
      return true;
    }
    const auto at = it->blocks.begin() + it->rank(slot);
    if (it->has(slot)) {
      *at = std::move(value);  // releases the overwritten Block
      return false;
    }
    it->blocks.insert(at, std::move(value));
    it->present |= bit;
    return true;
  }

  /// Drops the block in `slot` of the page under `key`, and the page
  /// with its last block; returns whether there was one.
  bool erase(const PageKey& key, std::size_t slot) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    const auto it = lower_bound(key);
    if (it == pages.end() || it->key != key || !it->has(slot)) return false;
    if (it->present == bit) {
      pages.erase(it);
    } else {
      it->blocks.erase(it->blocks.begin() + it->rank(slot));
      it->present &= ~bit;
    }
    return true;
  }

  /// The key that slot `slot` of the page under `key` holds.
  BlockKey key_at(const PageKey& key, std::size_t slot) const noexcept {
    const std::uint64_t bits =
        (static_cast<std::uint64_t>(key.number) << (kStripeBits + kSlotBits)) |
        (slot << kStripeBits) | number;
    return BlockKey{key.kind, key.cls, static_cast<NodeIndex>(bits)};
  }

  /// Calls fn(key, block) for every stored block, page by page.
  template <class Fn>
  void each(Fn&& fn) {
    for (Page& page : pages) {
      std::size_t j = 0;
      for (std::uint64_t bits = page.present; bits != 0; bits &= bits - 1)
        fn(key_at(page.key, static_cast<std::size_t>(std::countr_zero(bits))),
           page.blocks[j++]);
    }
  }

  const std::size_t number;
  std::mutex mu;
  std::vector<Page> pages;  // sorted by key; no page is empty
  std::uint64_t blocks = 0;
};

/// Where a key lives: its stripe, its page's key and its slot there.
struct ConcurrentBlockStore::Position {
  Stripe& stripe;
  PageKey page;
  std::size_t slot;
};

ConcurrentBlockStore::ConcurrentBlockStore() {
  static_assert(std::has_single_bit(kStripes) &&
                    std::has_single_bit(kPageSlots),
                "positions are index bits");
  static_assert(kPageSlots <= 64, "a page's occupancy is one word");
  for (std::size_t s = 0; s < kStripes; ++s)
    stripes_[s] = std::make_unique<Stripe>(s);
}

ConcurrentBlockStore::~ConcurrentBlockStore() = default;

ConcurrentBlockStore::Position ConcurrentBlockStore::position_of(
    const BlockKey& key) const noexcept {
  const auto bits = static_cast<std::uint64_t>(key.index);
  return Position{
      *stripes_[bits & (kStripes - 1)],
      PageKey{key.index >> (Stripe::kStripeBits + Stripe::kSlotBits),
              key.kind, key.cls},
      static_cast<std::size_t>(bits >> Stripe::kStripeBits) &
          (kPageSlots - 1)};
}

void ConcurrentBlockStore::put_block(const BlockKey& key, Block value) {
  AEC_CHECK_MSG(value, "put_block: a null Block for " << to_string(key));
  const Position at = position_of(key);
  std::lock_guard lock(at.stripe.mu);
  if (at.stripe.put(at.page, at.slot, std::move(value))) ++at.stripe.blocks;
  notify(key, true);
}

void ConcurrentBlockStore::put_blocks(
    std::vector<std::pair<BlockKey, Block>> items) {
  for (auto& [key, value] : items) put_block(key, std::move(value));
}

std::vector<Block> ConcurrentBlockStore::get_blocks(
    const std::vector<BlockKey>& keys) const {
  std::vector<Block> blocks(keys.size());
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const Position at = position_of(keys[j]);
    std::lock_guard lock(at.stripe.mu);
    const Stripe::Page* page = at.stripe.find(at.page);
    if (page != nullptr && page->has(at.slot))
      blocks[j] = page->blocks[page->rank(at.slot)];
  }
  return blocks;
}

bool ConcurrentBlockStore::contains(const BlockKey& key) const {
  const Position at = position_of(key);
  std::lock_guard lock(at.stripe.mu);
  const Stripe::Page* page = at.stripe.find(at.page);
  return page != nullptr && page->has(at.slot);
}

bool ConcurrentBlockStore::erase(const BlockKey& key) {
  const Position at = position_of(key);
  std::lock_guard lock(at.stripe.mu);
  if (!at.stripe.erase(at.page, at.slot)) return false;
  --at.stripe.blocks;
  notify(key, false);
  return true;
}

std::uint64_t ConcurrentBlockStore::size() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->blocks;
  }
  return total;
}

void ConcurrentBlockStore::for_each(
    const std::function<void(const BlockKey&, BytesView)>& fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    stripe->each([&](const BlockKey& key, const Block& block) {
      fn(key, block);
    });
  }
}

std::vector<std::pair<BlockKey, Block>> ConcurrentBlockStore::take_all() {
  std::vector<std::pair<BlockKey, Block>> items;
  items.reserve(size());
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    stripe->each([&](const BlockKey& key, Block& block) {
      items.emplace_back(key, std::move(block));
    });
    stripe->pages.clear();
    stripe->blocks = 0;
  }
  return items;
}

bool ConcurrentBlockStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    stripe->each([&](const BlockKey& key, const Block&) { fn(key); });
  }
  return true;
}

}  // namespace aec::pipeline
