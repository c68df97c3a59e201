// A benchmark-owned BlockStore decorator that times every payload call
// into the store layer. The traced run registers it as the "timed" store
// family and names it as the cluster child ("cluster(4,strand,
// timed(cmem))"), so the store layer's call counts, busy time and
// bytes are measured from outside the library, around the calls the
// cluster layer makes into each node's backend.
//
// Busy time is summed over calling threads (two pool workers can both be
// inside a store call), so a busy share above 1 means more than one
// thread was in the store at once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/codec/block_store.h"
#include "core/codec/store_registry.h"

namespace perfbench {

/// Process-wide tallies of every TimedStore (one per cluster node).
struct StoreTally {
  std::atomic<std::uint64_t> put_calls{0};
  std::atomic<std::uint64_t> put_ns{0};
  std::atomic<std::uint64_t> put_bytes{0};
  std::atomic<std::uint64_t> get_calls{0};
  std::atomic<std::uint64_t> get_ns{0};
  std::atomic<std::uint64_t> get_bytes{0};

  static StoreTally& global() {
    static StoreTally tally;
    return tally;
  }
};

/// Plain copy of the tallies, for before/after diffs.
struct StoreCounts {
  std::uint64_t put_calls = 0, put_ns = 0, put_bytes = 0;
  std::uint64_t get_calls = 0, get_ns = 0, get_bytes = 0;

  static StoreCounts now() {
    const StoreTally& t = StoreTally::global();
    const auto r = std::memory_order_relaxed;
    return {t.put_calls.load(r), t.put_ns.load(r), t.put_bytes.load(r),
            t.get_calls.load(r), t.get_ns.load(r), t.get_bytes.load(r)};
  }
  StoreCounts operator-(const StoreCounts& o) const {
    return {put_calls - o.put_calls, put_ns - o.put_ns,
            put_bytes - o.put_bytes, get_calls - o.get_calls,
            get_ns - o.get_ns,       get_bytes - o.get_bytes};
  }
};

class TimedStore final : public aec::BlockStore {
 public:
  explicit TimedStore(std::unique_ptr<aec::BlockStore> child)
      : child_(std::move(child)) {}

  void put(const aec::BlockKey& key, aec::Bytes value) override {
    const std::uint64_t bytes = value.size();
    const Timer t;
    child_->put(key, std::move(value));
    t.charge_put(1, bytes);
  }
  void put_batch(
      std::vector<std::pair<aec::BlockKey, aec::Bytes>> items) override {
    std::uint64_t bytes = 0;
    for (const auto& item : items) bytes += item.second.size();
    const Timer t;
    child_->put_batch(std::move(items));
    t.charge_put(1, bytes);
  }
  const aec::Bytes* find(const aec::BlockKey& key) const override {
    const Timer t;
    const aec::Bytes* found = child_->find(key);
    t.charge_get(1, found != nullptr ? found->size() : 0);
    return found;
  }
  std::optional<aec::Bytes> get_copy(
      const aec::BlockKey& key) const override {
    const Timer t;
    std::optional<aec::Bytes> got = child_->get_copy(key);
    t.charge_get(1, got ? got->size() : 0);
    return got;
  }
  std::vector<std::optional<aec::Bytes>> get_batch(
      const std::vector<aec::BlockKey>& keys) const override {
    const Timer t;
    std::vector<std::optional<aec::Bytes>> got = child_->get_batch(keys);
    std::uint64_t bytes = 0;
    for (const auto& g : got)
      if (g) bytes += g->size();
    t.charge_get(1, bytes);
    return got;
  }
  /// Cache warm-up reads payloads from the backing medium: store read
  /// time, but no bytes handed to a caller.
  void prefetch(const std::vector<aec::BlockKey>& keys) const override {
    const Timer t;
    child_->prefetch(keys);
    t.charge_get(1, 0);
  }
  /// Draining write-behind queues is store write time.
  void flush() const override {
    const Timer t;
    child_->flush();
    t.charge_put(0, 0);
  }

  bool contains(const aec::BlockKey& key) const override {
    return child_->contains(key);
  }
  bool erase(const aec::BlockKey& key) override { return child_->erase(key); }
  std::uint64_t size() const override { return child_->size(); }
  bool thread_safe() const noexcept override { return child_->thread_safe(); }
  void drop_payload_cache() const override { child_->drop_payload_cache(); }
  bool for_each_key(
      const std::function<void(const aec::BlockKey&)>& fn) const override {
    return child_->for_each_key(fn);
  }
  void rescan() override { child_->rescan(); }
  void set_observer(Observer* observer) override {
    child_->set_observer(observer);
  }
  Observer* observer() const override { return child_->observer(); }

  /// Registers "timed(<child spec>)" with the store registry.
  static void register_family() {
    aec::StoreRegistry::instance().register_family(
        "timed",
        [](const aec::StoreSpec& spec, const std::filesystem::path& root)
            -> std::unique_ptr<aec::BlockStore> {
          AEC_CHECK_MSG(spec.args.size() == 1,
                        "timed store wants timed(<child spec>)");
          return std::make_unique<TimedStore>(
              aec::make_store(spec.args[0], root));
        });
  }

 private:
  class Timer {
   public:
    Timer() : start_(std::chrono::steady_clock::now()) {}
    void charge_put(std::uint64_t calls, std::uint64_t bytes) const {
      StoreTally& t = StoreTally::global();
      t.put_calls.fetch_add(calls, std::memory_order_relaxed);
      t.put_ns.fetch_add(elapsed_ns(), std::memory_order_relaxed);
      t.put_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    void charge_get(std::uint64_t calls, std::uint64_t bytes) const {
      StoreTally& t = StoreTally::global();
      t.get_calls.fetch_add(calls, std::memory_order_relaxed);
      t.get_ns.fetch_add(elapsed_ns(), std::memory_order_relaxed);
      t.get_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }

   private:
    std::uint64_t elapsed_ns() const {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
    std::chrono::steady_clock::time_point start_;
  };

  std::unique_ptr<aec::BlockStore> child_;
};

}  // namespace perfbench
