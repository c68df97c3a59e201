#include "pipeline/concurrent_block_store.h"

#include <unordered_map>

namespace aec::pipeline {

struct ConcurrentBlockStore::Stripe {
  mutable std::mutex mu;
  std::unordered_map<BlockKey, Block, BlockKeyHash> blocks;
};

ConcurrentBlockStore::ConcurrentBlockStore() {
  static_assert((kStripes & (kStripes - 1)) == 0,
                "the stripe pick masks the hash");
  for (auto& stripe : stripes_) stripe = std::make_unique<Stripe>();
}

ConcurrentBlockStore::~ConcurrentBlockStore() = default;

ConcurrentBlockStore::Stripe& ConcurrentBlockStore::stripe_of(
    const BlockKey& key) const noexcept {
  return *stripes_[mixed_block_key_hash(key) & (kStripes - 1)];
}

void ConcurrentBlockStore::put_block(const BlockKey& key, Block value) {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  stripe.blocks[key] = std::move(value);
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
    Stripe& stripe = stripe_of(keys[j]);
    std::lock_guard lock(stripe.mu);
    const auto it = stripe.blocks.find(keys[j]);
    if (it != stripe.blocks.end()) blocks[j] = it->second;
  }
  return blocks;
}

bool ConcurrentBlockStore::contains(const BlockKey& key) const {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  return stripe.blocks.contains(key);
}

bool ConcurrentBlockStore::erase(const BlockKey& key) {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  if (stripe.blocks.erase(key) == 0) return false;
  notify(key, false);
  return true;
}

std::uint64_t ConcurrentBlockStore::size() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->blocks.size();
  }
  return total;
}

void ConcurrentBlockStore::for_each(
    const std::function<void(const BlockKey&, BytesView)>& fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (const auto& [key, value] : stripe->blocks) fn(key, value);
  }
}

std::vector<std::pair<BlockKey, Block>> ConcurrentBlockStore::take_all() {
  std::vector<std::pair<BlockKey, Block>> items;
  items.reserve(size());
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (auto& [key, value] : stripe->blocks)
      items.emplace_back(key, std::move(value));
    stripe->blocks.clear();
  }
  return items;
}

bool ConcurrentBlockStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (const auto& [key, value] : stripe->blocks) fn(key);
  }
  return true;
}

}  // namespace aec::pipeline
