// A thread-safe in-memory store with three test hooks: fail one chosen
// put() — the failure-path oracle for the encoder, the archive's
// FileWriter and the daemon's PUT handling — and run a callback before
// each get_copy() or get_batch(), to hold one read at a chosen point of
// a race or to see the order in which reads ran.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec/store_registry.h"
#include "pipeline/concurrent_block_store.h"

namespace aec::test {

class HookedStore final : public BlockStore {
 public:
  /// Store N to make the N-th put() from now throw, once. Zero (the
  /// start) or below is disarmed. Every item of a batch goes through
  /// put() (the base put_batch), so this counts blocks, not batches.
  std::atomic<std::int64_t> fail_countdown{0};
  /// Runs before each get_copy(); set it while no read is in flight.
  std::function<void(const BlockKey&)> before_get;
  /// Runs before each get_batch(); set it while no read is in flight.
  std::function<void(const std::vector<BlockKey>&)> before_batch;

  void put(const BlockKey& key, Bytes value) override {
    if (fail_countdown.fetch_sub(1) == 1)
      throw std::runtime_error("injected store failure at " + to_string(key));
    inner_.put(key, std::move(value));
  }
  bool contains(const BlockKey& key) const override {
    return inner_.contains(key);
  }
  bool erase(const BlockKey& key) override { return inner_.erase(key); }
  std::uint64_t size() const override { return inner_.size(); }
  std::optional<Bytes> get_copy(const BlockKey& key) const override {
    if (before_get) before_get(key);
    return inner_.get_copy(key);
  }
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override {
    if (before_batch) before_batch(keys);
    return inner_.get_batch(keys);
  }
  bool thread_safe() const noexcept override { return true; }
  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override {
    return inner_.for_each_key(fn);
  }
  void set_observer(Observer* observer) override {
    inner_.set_observer(observer);
  }
  Observer* observer() const override { return inner_.observer(); }

 private:
  pipeline::ConcurrentBlockStore inner_;
};

/// Registers store family `family` (spec "<family>") building
/// HookedStores, and returns a slot holding the last one built — a test's
/// handle on a live archive's store.
inline std::shared_ptr<HookedStore*> register_hooked_family(
    const std::string& family) {
  auto slot = std::make_shared<HookedStore*>(nullptr);
  StoreRegistry::instance().register_family(
      family, [slot](const StoreSpec&, const std::filesystem::path&) {
        auto store = std::make_unique<HookedStore>();
        *slot = store.get();
        return std::unique_ptr<BlockStore>(std::move(store));
      });
  return slot;
}

}  // namespace aec::test
