#include "pipeline/concurrent_block_store.h"

#include <unordered_map>

#include "common/check.h"

namespace aec::pipeline {

struct ConcurrentBlockStore::Stripe {
  mutable std::mutex mu;
  std::unordered_map<BlockKey, Bytes, BlockKeyHash> blocks;
};

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t r = 1;
  while (r < n) r <<= 1;
  return r;
}
}  // namespace

ConcurrentBlockStore::ConcurrentBlockStore(std::size_t stripes) {
  AEC_CHECK_MSG(stripes >= 1, "store needs at least one stripe");
  const std::size_t count = round_up_pow2(stripes);
  stripes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    stripes_.push_back(std::make_unique<Stripe>());
  mask_ = count - 1;
}

ConcurrentBlockStore::~ConcurrentBlockStore() = default;

ConcurrentBlockStore::Stripe& ConcurrentBlockStore::stripe_of(
    const BlockKey& key) const noexcept {
  return *stripes_[mixed_block_key_hash(key) & mask_];
}

void ConcurrentBlockStore::put(const BlockKey& key, Bytes value) {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  stripe.blocks[key] = std::move(value);
  notify(key, true);
}

const Bytes* ConcurrentBlockStore::find(const BlockKey& key) const {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  const auto it = stripe.blocks.find(key);
  return it == stripe.blocks.end() ? nullptr : &it->second;
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

std::optional<Bytes> ConcurrentBlockStore::get_copy(
    const BlockKey& key) const {
  Stripe& stripe = stripe_of(key);
  std::lock_guard lock(stripe.mu);
  const auto it = stripe.blocks.find(key);
  if (it == stripe.blocks.end()) return std::nullopt;
  return it->second;
}

void ConcurrentBlockStore::for_each(
    const std::function<void(const BlockKey&, const Bytes&)>& fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (const auto& [key, value] : stripe->blocks) fn(key, value);
  }
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
