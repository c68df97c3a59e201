// Parallel entanglement pipeline: ThreadPool (completion groups),
// ConcurrentBlockStore and ParallelEncoder. The load-bearing property is that scheduling never
// changes a byte (paper §V-B: partial writes reorder work, never
// results): every encoding matches the ground truth — the data blocks
// themselves plus parities satisfying p_{i,j} = d_i XOR p_{h,i} — and is
// byte-identical across worker counts, batch splits and crash resumes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "ae_test_util.h"
#include "hooked_store.h"
#include "common/check.h"
#include "common/rng.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/thread_pool.h"
#include "core/codec/file_block_store.h"
#include "tools/archive.h"

namespace aec {
namespace {

using pipeline::ConcurrentBlockStore;
using pipeline::ParallelEncoder;
using pipeline::ThreadPool;

constexpr std::size_t kBlockSize = 64;

using test::expect_encoding_of;
using test::expect_stores_identical;

std::vector<Bytes> random_blocks(std::size_t count, std::uint64_t seed) {
  return test::random_blocks(count, kBlockSize, seed);
}

/// One-worker reference encoding of `blocks`, fed in ragged batches
/// (1, 2, 3, … blocks) so a batch boundary falls mid-column; checked
/// against the ground truth before it serves as a reference.
std::unique_ptr<ConcurrentBlockStore> one_worker_reference(
    const CodeParams& params, const std::vector<Bytes>& blocks) {
  auto store = std::make_unique<ConcurrentBlockStore>();
  ThreadPool pool(1);
  ParallelEncoder enc(params, kBlockSize, store.get(), &pool);
  std::size_t done = 0;
  for (std::size_t batch = 1; done < blocks.size(); ++batch) {
    const std::size_t end = std::min(done + batch, blocks.size());
    enc.append_all(
        test::join({blocks.begin() + static_cast<std::ptrdiff_t>(done),
                    blocks.begin() + static_cast<std::ptrdiff_t>(end)}));
    done = end;
  }
  expect_encoding_of(params, kBlockSize, blocks, *store);
  return store;
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  ThreadPool::Group group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit(group, [&counter] { counter.fetch_add(1); });
  pool.wait(group);
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, BackpressureBoundsTheQueueWithoutLosingTasks) {
  // The producer's first task holds the pool's only worker on a gate, so
  // nothing drains: the gate task plus kQueueCapacity queued ones are
  // all the submits that can return, and the next blocks rather than
  // overflow or drop. Released, every task runs.
  constexpr std::size_t kCapacity = ThreadPool::kQueueCapacity;
  ThreadPool pool(1);
  ThreadPool::Group group;
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> ran{0};
  std::thread producer([&] {
    pool.submit(group, [&] {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return released; });
    });
    ++submitted;
    for (std::size_t i = 1; i < kCapacity + 10; ++i) {
      pool.submit(group, [&ran] { ran.fetch_add(1); });
      ++submitted;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (submitted.load() < kCapacity + 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(submitted.load(), kCapacity + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(submitted.load(), kCapacity + 1);  // the next submit blocks
  EXPECT_EQ(ran.load(), 0u);
  {
    std::lock_guard lock(mu);
    released = true;
  }
  cv.notify_all();
  producer.join();
  pool.wait(group);
  EXPECT_EQ(submitted.load(), kCapacity + 10);
  EXPECT_EQ(ran.load(), kCapacity + 9);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError) {
  ThreadPool pool(2);
  ThreadPool::Group group;
  pool.submit(group, [] { throw CheckError("task failed"); });
  EXPECT_THROW(pool.wait(group), CheckError);
  // The error is consumed; the group and the pool keep working.
  std::atomic<int> counter{0};
  pool.submit(group, [&counter] { counter.fetch_add(1); });
  pool.wait(group);
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(2);
  ThreadPool::Group group;
  pool.wait(group);
  pool.wait(group);
}

TEST(ThreadPool, GroupsOnOnePoolWaitAndFailIndependently) {
  // Two coordinators share one pool. Group A's task blocks until the
  // test releases it: waiting on group B must return without it, and
  // B's error must surface in B only.
  ThreadPool pool(2);
  ThreadPool::Group a;
  ThreadPool::Group b;
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> a_done{false};
  pool.submit(a, [&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return released; });
    a_done = true;
  });
  std::atomic<int> b_ran{0};
  pool.submit(b, [&b_ran] { b_ran.fetch_add(1); });
  pool.submit(b, [] { throw CheckError("b failed"); });
  EXPECT_THROW(pool.wait(b), CheckError);
  EXPECT_EQ(b_ran.load(), 1);
  EXPECT_FALSE(a_done.load()) << "wait(b) waited for group a's task";
  {
    std::lock_guard lock(mu);
    released = true;
  }
  cv.notify_all();
  EXPECT_NO_THROW(pool.wait(a));
  EXPECT_TRUE(a_done.load());
}

TEST(ThreadPool, GroupDestructorWaitsForItsTasks) {
  // Tasks may reference the coordinator's stack, so a group that goes
  // out of scope unwaited (an exception between submit and wait) must
  // still outlast them.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  {
    ThreadPool::Group group;
    for (int i = 0; i < 64; ++i)
      pool.submit(group, [&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        counter.fetch_add(1);
      });
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, RunOneRunsTheGroupsOldestQueuedTaskOnTheCaller) {
  // The only worker is held by group `hold`: run_one takes `mine`'s
  // queued tasks in submission order onto the calling thread, skipping
  // the other group's, settles their errors with `mine`, and reports
  // false once none of them is queued.
  ThreadPool pool(1);
  ThreadPool::Group hold;
  ThreadPool::Group other;
  ThreadPool::Group mine;
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool released = false;
  pool.submit(hold, [&] {
    std::unique_lock lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  std::atomic<int> other_ran{0};
  std::vector<int> order;
  std::vector<std::thread::id> runners;
  pool.submit(other, [&other_ran] { other_ran.fetch_add(1); });
  for (int i = 0; i < 3; ++i)
    pool.submit(mine, [&, i] {
      order.push_back(i);
      runners.push_back(std::this_thread::get_id());
      if (i == 1) throw CheckError("task 1 failed");
    });
  EXPECT_TRUE(pool.run_one(mine));
  EXPECT_TRUE(pool.run_one(mine));
  EXPECT_TRUE(pool.run_one(mine));
  EXPECT_FALSE(pool.run_one(mine));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(runners, std::vector<std::thread::id>(
                         3, std::this_thread::get_id()));
  EXPECT_THROW(pool.wait(mine), CheckError);  // returns: nothing pending
  EXPECT_EQ(other_ran.load(), 0);
  {
    std::lock_guard lock(mu);
    released = true;
  }
  cv.notify_all();
  pool.wait(hold);
  pool.wait(other);
  EXPECT_EQ(other_ran.load(), 1);
}

// --- ConcurrentBlockStore ---------------------------------------------------

TEST(ConcurrentBlockStore, BasicStoreContract) {
  ConcurrentBlockStore store;
  const BlockKey key = BlockKey::data(7);
  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.get_copy(key), std::nullopt);
  store.put(key, Bytes{1, 2, 3});
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.get_copy(key), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.size(), 1u);
  store.put(key, Bytes{4});  // overwrite
  EXPECT_EQ(store.get_copy(key), Bytes{4});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ConcurrentBlockStore, GetCopyAndForEach) {
  ConcurrentBlockStore store;
  for (NodeIndex i = 1; i <= 100; ++i)
    store.put(BlockKey::data(i), Bytes(8, static_cast<std::uint8_t>(i)));
  EXPECT_FALSE(store.get_copy(BlockKey::data(999)).has_value());
  const auto copy = store.get_copy(BlockKey::data(42));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, Bytes(8, 42));
  std::size_t visited = 0;
  store.for_each([&](const BlockKey& key, BytesView value) {
    ++visited;
    EXPECT_EQ(Bytes(value.begin(), value.end()),
              Bytes(8, static_cast<std::uint8_t>(key.index)));
  });
  EXPECT_EQ(visited, 100u);
}

TEST(ConcurrentBlockStore, TakeAllMovesEveryPairOutWithoutNotifying) {
  struct CountingObserver final : BlockStore::Observer {
    std::atomic<int> calls{0};
    void on_block(const BlockKey&, bool) override { calls.fetch_add(1); }
  } observer;
  ConcurrentBlockStore store;
  store.set_observer(&observer);
  for (NodeIndex i = 1; i <= 100; ++i) {
    store.put(BlockKey::data(i), Bytes(8, static_cast<std::uint8_t>(i)));
    store.put(BlockKey::parity(Edge{StrandClass::kRightHanded, i}),
              Bytes(4, static_cast<std::uint8_t>(i + 1)));
  }
  ASSERT_EQ(observer.calls.load(), 200);

  auto items = store.take_all();
  EXPECT_EQ(observer.calls.load(), 200);  // the move announces nothing
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.contains(BlockKey::data(1)));
  ASSERT_EQ(items.size(), 200u);
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.index, a.first.kind) <
           std::tie(b.first.index, b.first.kind);
  });
  for (std::size_t j = 0; j < items.size(); ++j) {
    const auto i = static_cast<NodeIndex>(j / 2 + 1);
    if (j % 2 == 0) {
      EXPECT_EQ(items[j].first, BlockKey::data(i));
      EXPECT_EQ(items[j].second, Bytes(8, static_cast<std::uint8_t>(i)));
    } else {
      EXPECT_EQ(items[j].first,
                BlockKey::parity(Edge{StrandClass::kRightHanded, i}));
      EXPECT_EQ(items[j].second, Bytes(4, static_cast<std::uint8_t>(i + 1)));
    }
  }
  EXPECT_TRUE(store.take_all().empty());
}

TEST(ConcurrentBlockStore, ConcurrentPutsFromManyThreadsAllLand) {
  ConcurrentBlockStore store;
  ThreadPool pool(8);
  ThreadPool::Group group;
  constexpr int kPerThreadKeys = 500;
  for (int t = 0; t < 8; ++t) {
    pool.submit(group, [&store, t] {
      for (int i = 0; i < kPerThreadKeys; ++i) {
        const auto index =
            static_cast<NodeIndex>(t * kPerThreadKeys + i + 1);
        store.put(BlockKey::data(index),
                  Bytes(16, static_cast<std::uint8_t>(index % 251)));
      }
    });
  }
  pool.wait(group);
  EXPECT_EQ(store.size(), 8u * kPerThreadKeys);
  for (NodeIndex i = 1; i <= 8 * kPerThreadKeys; ++i) {
    const auto copy = store.get_copy(BlockKey::data(i));
    ASSERT_TRUE(copy.has_value()) << i;
    EXPECT_EQ(*copy, Bytes(16, static_cast<std::uint8_t>(i % 251)));
  }
}

// The store finds a block by its index: stripe = the low bits
// (kStripes), slot = the next ones (kPageSlots), page = the rest (an
// arithmetic shift), so one page spans kSpan indices.
constexpr NodeIndex kStripes = ConcurrentBlockStore::kStripes;
constexpr NodeIndex kSpan = kStripes * ConcurrentBlockStore::kPageSlots;

// These keys share stripes, pages and slots in every way that could
// alias: 0, −kSpan, kSpan and INT64_MIN all take slot 0 of stripe 0 in
// four pages; −1 and INT64_MAX take the last slot of the last stripe;
// every index carries data and all three parity classes; and a data
// key's class is part of its identity, as BlockKey's operator== has it.
std::vector<BlockKey> identity_keys() {
  std::vector<BlockKey> keys;
  for (const NodeIndex i :
       {NodeIndex{0}, NodeIndex{-1}, -kSpan, kSpan,
        (NodeIndex{1} << 40) + 3, std::numeric_limits<NodeIndex>::min(),
        std::numeric_limits<NodeIndex>::max()}) {
    keys.push_back(BlockKey::data(i));
    for (const StrandClass cls :
         {StrandClass::kHorizontal, StrandClass::kRightHanded,
          StrandClass::kLeftHanded})
      keys.push_back(BlockKey::parity(Edge{cls, i}));
  }
  keys.push_back(BlockKey{BlockKey::Kind::kData, StrandClass::kLeftHanded, 0});
  return keys;
}

/// Keys next to identity_keys() in every direction (the same page, the
/// same slot of another page, another class), none of them stored.
std::vector<BlockKey> neighbour_keys() {
  const NodeIndex far = (NodeIndex{1} << 40) + 3;
  return {BlockKey::data(1),                BlockKey::data(kStripes),
          BlockKey::data(-kSpan - 1),       BlockKey::data(-2 * kSpan),
          BlockKey::data(far + kStripes),   BlockKey::data(far + kSpan),
          BlockKey::data(far - kSpan),      BlockKey::data(2 * kSpan),
          BlockKey{BlockKey::Kind::kData, StrandClass::kRightHanded, 0},
          BlockKey::parity(Edge{StrandClass::kLeftHanded, -kSpan - 1})};
}

Bytes identity_payload(std::size_t j) {
  return Bytes(5, static_cast<std::uint8_t>(j + 1));
}

std::vector<BlockKey> sorted_keys(std::vector<BlockKey> keys) {
  std::sort(keys.begin(), keys.end(),
            [](const BlockKey& a, const BlockKey& b) {
              return std::tie(a.index, a.kind, a.cls) <
                     std::tie(b.index, b.kind, b.cls);
            });
  return keys;
}

TEST(ConcurrentBlockStore, EveryIndexAndKindIsItsOwnKey) {
  ConcurrentBlockStore store;
  const auto keys = identity_keys();
  for (std::size_t j = 0; j < keys.size(); ++j)
    store.put_block(keys[j], Block::copy_of(identity_payload(j)));
  ASSERT_EQ(store.size(), keys.size());

  const auto blocks = store.get_blocks(keys);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    EXPECT_EQ(blocks[j], identity_payload(j)) << to_string(keys[j]);
    EXPECT_TRUE(store.contains(keys[j])) << to_string(keys[j]);
  }
  for (const BlockKey& key : neighbour_keys()) {
    EXPECT_FALSE(store.contains(key)) << to_string(key);
    EXPECT_FALSE(store.get_block(key)) << to_string(key);
    EXPECT_FALSE(store.erase(key)) << to_string(key);
  }
  EXPECT_EQ(store.size(), keys.size());

  // Enumeration hands back each stored key, with its own payload.
  std::vector<BlockKey> visited;
  store.for_each([&](const BlockKey& key, BytesView value) {
    const auto j = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), key) - keys.begin());
    ASSERT_LT(j, keys.size()) << to_string(key);
    EXPECT_EQ(Bytes(value.begin(), value.end()), identity_payload(j));
    visited.push_back(key);
  });
  EXPECT_EQ(sorted_keys(visited), sorted_keys(keys));
  visited.clear();
  EXPECT_TRUE(store.for_each_key(
      [&](const BlockKey& key) { visited.push_back(key); }));
  EXPECT_EQ(sorted_keys(visited), sorted_keys(keys));

  // Erasing one key leaves every other one in place.
  for (std::size_t j = 0; j < keys.size(); ++j) {
    ASSERT_TRUE(store.erase(keys[j])) << to_string(keys[j]);
    EXPECT_FALSE(store.erase(keys[j])) << to_string(keys[j]);
    EXPECT_FALSE(store.contains(keys[j])) << to_string(keys[j]);
    EXPECT_EQ(store.size(), keys.size() - j - 1);
    const auto rest = store.get_blocks(keys);
    for (std::size_t k = 0; k < keys.size(); ++k)
      EXPECT_EQ(rest[k],
                k <= j ? Block() : Block::copy_of(identity_payload(k)))
          << "after erasing " << to_string(keys[j]) << ": "
          << to_string(keys[k]);
  }

  // take_all moves out exactly what was stored.
  for (std::size_t j = 0; j < keys.size(); ++j)
    store.put_block(keys[j], Block::copy_of(identity_payload(j)));
  auto items = store.take_all();
  EXPECT_EQ(store.size(), 0u);
  ASSERT_EQ(items.size(), keys.size());
  visited.clear();
  for (const auto& [key, block] : items) {
    const auto j = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), key) - keys.begin());
    ASSERT_LT(j, keys.size()) << to_string(key);
    EXPECT_EQ(block, identity_payload(j)) << to_string(key);
    visited.push_back(key);
  }
  EXPECT_EQ(sorted_keys(visited), sorted_keys(keys));
  for (const BlockKey& key : keys) EXPECT_FALSE(store.contains(key));
}

TEST(ConcurrentBlockStore, SizeStaysExactAcrossOverwriteEmptyPageAndTake) {
  struct CountingObserver final : BlockStore::Observer {
    int present = 0;
    int absent = 0;
    void on_block(const BlockKey&, bool p) override {
      ++(p ? present : absent);
    }
  } observer;
  ConcurrentBlockStore store;
  store.set_observer(&observer);
  const BlockKey alone = BlockKey::data(-kSpan);  // the only key of its page
  const BlockKey other = BlockKey::parity(Edge{StrandClass::kHorizontal, 5});
  store.put_block(alone, Block::copy_of(Bytes{1}));
  store.put_block(other, Block::copy_of(Bytes{9}));
  EXPECT_EQ(store.size(), 2u);

  store.put_block(alone, Block::copy_of(Bytes{2}));  // overwrite
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get_block(alone), Bytes{2});

  ASSERT_TRUE(store.erase(alone));  // its page goes with it
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.contains(alone));
  EXPECT_FALSE(store.get_block(alone));
  store.put_block(alone, Block::copy_of(Bytes{3}));  // and comes back
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get_block(alone), Bytes{3});
  EXPECT_EQ(store.get_block(other), Bytes{9});
  EXPECT_EQ(observer.present, 4);
  EXPECT_EQ(observer.absent, 1);

  EXPECT_EQ(store.take_all().size(), 2u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.take_all().empty());
  store.put_block(alone, Block::copy_of(Bytes{4}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get_block(alone), Bytes{4});
  EXPECT_EQ(observer.present, 5);  // take_all announced nothing
  EXPECT_EQ(observer.absent, 1);
}

TEST(ConcurrentBlockStore, PackedSlotsAgreeWithAMapUnderRandomWrites) {
  // A page packs its Blocks in slot order, so a put into an empty slot
  // or an erase moves its neighbours. Random puts, overwrites and erases
  // over every slot of three pages of one stripe (two pages of data,
  // one of H parities) and a sparse page of another stripe, checked
  // after each step against a map.
  std::vector<BlockKey> keys;
  for (NodeIndex slot = 0; slot < kSpan / kStripes; ++slot) {
    keys.push_back(BlockKey::data(slot * kStripes + 3));
    keys.push_back(BlockKey::data(-kSpan + slot * kStripes + 3));
    keys.push_back(
        BlockKey::parity(Edge{StrandClass::kHorizontal, slot * kStripes + 3}));
  }
  keys.push_back(BlockKey::data(7));
  keys.push_back(BlockKey::data(kSpan - kStripes + 7));
  ConcurrentBlockStore store;
  std::map<std::size_t, std::uint8_t> model;  // key position → payload
  std::mt19937_64 rng(17);
  for (int step = 0; step < 6000; ++step) {
    const std::size_t j = rng() % keys.size();
    const auto value = static_cast<std::uint8_t>(step);
    if (rng() % 3 != 0) {
      store.put_block(keys[j], Block::copy_of(Bytes(3, value)));
      model[j] = value;
    } else {
      ASSERT_EQ(store.erase(keys[j]), model.erase(j) == 1) << step;
    }
    ASSERT_EQ(store.size(), model.size()) << step;
    if (step % 50 != 0) continue;
    const auto blocks = store.get_blocks(keys);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto it = model.find(k);
      ASSERT_EQ(blocks[k], it == model.end() ? Block()
                                             : Block::copy_of(Bytes(
                                                   3, it->second)))
          << step << " " << to_string(keys[k]);
      ASSERT_EQ(store.contains(keys[k]), it != model.end());
    }
  }
  std::vector<BlockKey> visited;
  store.for_each([&](const BlockKey& key, BytesView value) {
    const auto j = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), key) - keys.begin());
    ASSERT_TRUE(model.contains(j)) << to_string(key);
    EXPECT_EQ(Bytes(value.begin(), value.end()), Bytes(3, model[j]));
    visited.push_back(key);
  });
  EXPECT_EQ(visited.size(), model.size());
}

TEST(ConcurrentBlockStore, HeldReadsStayWholeWhilePagesAreFreedAndRefilled) {
  // Two writers each fill one page of stripe 5 (pages 0 and −1), then
  // erase every key of it, so the page is freed, and fill it again with
  // the next round's bytes. Two readers hold what get_blocks hands them
  // across those rounds: every held Block keeps its whole payload, each
  // byte its round's.
  constexpr int kRounds = 60;
  constexpr std::size_t kSize = 64;
  auto page_keys = [](NodeIndex page) {
    std::vector<BlockKey> keys;
    for (NodeIndex slot = 0; slot < kSpan / kStripes; ++slot)
      keys.push_back(BlockKey::data(page * kSpan + slot * kStripes + 5));
    return keys;
  };
  const std::vector<std::vector<BlockKey>> pages = {page_keys(0),
                                                    page_keys(-1)};
  std::vector<BlockKey> all = pages[0];
  all.insert(all.end(), pages[1].begin(), pages[1].end());

  ConcurrentBlockStore store;
  std::atomic<int> writers_left{2};
  std::vector<std::thread> threads;
  for (const auto& keys : pages) {
    threads.emplace_back([&store, &writers_left, &keys] {
      for (int round = 1; round <= kRounds; ++round) {
        for (const BlockKey& key : keys)
          store.put_block(key, Block::build(kSize, [&](auto out) {
            std::fill(out.begin(), out.end(),
                      static_cast<std::uint8_t>(round));
          }));
        for (const BlockKey& key : keys) EXPECT_TRUE(store.erase(key));
      }
      writers_left.fetch_sub(1);
    });
  }
  auto whole = [](const Block& block) {
    return block.size() == kSize &&
           std::all_of(block.begin(), block.end(),
                       [&](std::uint8_t b) { return b == block.data()[0]; }) &&
           block.data()[0] >= 1 && block.data()[0] <= kRounds;
  };
  std::vector<std::vector<Block>> held(2);
  for (auto& mine : held) {
    threads.emplace_back([&store, &writers_left, &all, &mine, &whole] {
      while (writers_left.load() > 0) {
        for (Block& block : store.get_blocks(all))
          if (block) mine.push_back(std::move(block));
        // bound the holding: keep the oldest reads, check the rest now
        if (mine.size() > 4096) {
          for (std::size_t j = 2048; j < mine.size(); ++j)
            ASSERT_TRUE(whole(mine[j]));
          mine.resize(2048);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(store.size(), 0u);
  for (const auto& mine : held)
    for (const Block& block : mine) ASSERT_TRUE(whole(block));
}

// --- ParallelEncoder: ground truth, worker counts and batch splits ----------

struct EquivalenceCase {
  CodeParams params;
  std::size_t threads;
  std::size_t blocks;
};

class ParallelEncoderEquivalence
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ParallelEncoderEquivalence, GroundTruthAtEveryWorkerCount) {
  // One batch on `threads` workers against the ground truth, and
  // byte-identical to a one-worker encoding fed in ragged batches.
  const auto& [params, threads, count] = GetParam();
  const auto blocks = random_blocks(count, 101);

  ThreadPool pool(threads);
  ConcurrentBlockStore store;
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  enc.append_all(test::join(blocks));

  EXPECT_EQ(enc.size(), count);
  expect_encoding_of(params, kBlockSize, blocks, store);
  expect_stores_identical(*one_worker_reference(params, blocks), store);
}

std::string case_name(
    const ::testing::TestParamInfo<EquivalenceCase>& info) {
  return "AE_" + std::to_string(info.param.params.alpha()) + "_" +
         std::to_string(info.param.params.s()) + "_" +
         std::to_string(info.param.params.p()) + "_t" +
         std::to_string(info.param.threads) + "_n" +
         std::to_string(info.param.blocks);
}

INSTANTIATE_TEST_SUITE_P(
    StrandScheduling, ParallelEncoderEquivalence,
    ::testing::Values(
        // The acceptance grid: AE(3,2,5) and AE(3,5,5) across ≥ 10k
        // blocks at 1, 2 and 8 threads. Counts are offset from multiples
        // of s so the last column is partial.
        EquivalenceCase{CodeParams(3, 2, 5), 1, 10001},
        EquivalenceCase{CodeParams(3, 2, 5), 2, 10001},
        EquivalenceCase{CodeParams(3, 2, 5), 8, 10001},
        EquivalenceCase{CodeParams(3, 5, 5), 1, 10003},
        EquivalenceCase{CodeParams(3, 5, 5), 2, 10003},
        EquivalenceCase{CodeParams(3, 5, 5), 8, 10003},
        // Degenerate and small shapes.
        EquivalenceCase{CodeParams::single(), 4, 257},
        EquivalenceCase{CodeParams(2, 2, 2), 4, 333},
        EquivalenceCase{CodeParams(3, 5, 7), 3, 1234}),
    case_name);

TEST(ParallelEncoder, SingleAppendInterleavesWithBatches) {
  const CodeParams params(3, 2, 5);
  const auto blocks = random_blocks(100, 23);
  const auto expected = one_worker_reference(params, blocks);

  ThreadPool pool(2);
  ConcurrentBlockStore store;
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  // One-block batches around a larger one.
  enc.append_all(blocks[0]);
  enc.append_all(test::join({blocks.begin() + 1, blocks.begin() + 60}));
  for (std::size_t i = 60; i < blocks.size(); ++i) enc.append_all(blocks[i]);
  expect_stores_identical(*expected, store);
}

TEST(ParallelEncoder, HeadCacheBoundedByStrandCount) {
  const CodeParams params(3, 5, 7);
  ThreadPool pool(4);
  ConcurrentBlockStore store;
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  enc.append_all(test::join(random_blocks(300, 31)));
  EXPECT_EQ(enc.cached_heads(), params.total_strands());
}

TEST(ParallelEncoder, CrashResumeThroughDropHeadCache) {
  // Dropping the head cache mid-stream (broker crash, paper §IV-A) must
  // not change a single byte: heads are re-fetched from the store at the
  // next wave.
  const CodeParams params(3, 2, 5);
  const auto blocks = random_blocks(500, 57);
  const auto expected = one_worker_reference(params, blocks);

  ThreadPool pool(4);
  ConcurrentBlockStore store;
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  std::size_t done = 0;
  const std::size_t chunks[] = {1, 99, 3, 250, 147};  // ragged splits
  for (const std::size_t chunk : chunks) {
    enc.append_all(test::join(
        {blocks.begin() + static_cast<std::ptrdiff_t>(done),
         blocks.begin() + static_cast<std::ptrdiff_t>(done + chunk)}));
    done += chunk;
    enc.drop_head_cache();
    EXPECT_EQ(enc.cached_heads(), 0u);
  }
  ASSERT_EQ(done, blocks.size());
  expect_stores_identical(*expected, store);
}

TEST(ParallelEncoder, ResumeCountContinuesAnExistingLattice) {
  const CodeParams params(3, 5, 5);
  const auto blocks = random_blocks(612, 71);
  const auto expected = one_worker_reference(params, blocks);

  ThreadPool pool(4);
  ConcurrentBlockStore store;
  {
    ParallelEncoder first(params, kBlockSize, &store, &pool);
    first.append_all(test::join({blocks.begin(), blocks.begin() + 203}));
  }
  // A brand-new encoder (fresh process) resumes at block 203 — not a
  // multiple of s = 5, so it restarts mid-column.
  ParallelEncoder second(params, kBlockSize, &store, &pool, 203);
  second.append_all(test::join({blocks.begin() + 203, blocks.end()}));
  EXPECT_EQ(second.size(), blocks.size());
  expect_stores_identical(*expected, store);
}

TEST(ParallelEncoder, FailedBatchRetriesByteIdentically) {
  // A store failure mid-batch: strand tasks that finished first have
  // already XORed their heads forward while size() stays put. The retry
  // must re-fetch the heads from the store, not XOR the batch in twice.
  const CodeParams params(3, 2, 5);
  const auto blocks = random_blocks(40, 83);
  const Bytes second = test::join({blocks.begin() + 20, blocks.end()});
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    test::HookedStore store;
    ParallelEncoder enc(params, kBlockSize, &store, &pool);
    enc.append_all(test::join({blocks.begin(), blocks.begin() + 20}));
    store.fail_countdown = 31;  // the batch's 31st put throws
    EXPECT_THROW(enc.append_all(second), std::runtime_error);
    EXPECT_EQ(enc.size(), 20u);
    enc.append_all(second);
    EXPECT_EQ(enc.size(), 40u);
    expect_encoding_of(params, kBlockSize, blocks, store);
  }
}

TEST(ParallelEncoder, RejectsWrongBlockSize) {
  ThreadPool pool(2);
  ConcurrentBlockStore store;
  ParallelEncoder enc(CodeParams(3, 2, 5), kBlockSize, &store, &pool);
  EXPECT_THROW(enc.append_all(Bytes(kBlockSize + 1, 0)), CheckError);
  EXPECT_EQ(store.size(), 0u);
}

// --- Archive integration ----------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              (std::string("aec_pipeline_") + tag + "_" +
               std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ArchiveParallelIngest, MatchesSerialArchiveByteForByte) {
  Rng rng(91);
  const Bytes content = rng.random_block(64 * 257 + 13);
  const CodeParams params(3, 2, 5);

  TempDir serial_dir("serial");
  TempDir parallel_dir("parallel");
  auto serial = tools::Archive::create(serial_dir.path(), params.name(), 64,
                                       Engine::serial());
  auto parallel = tools::Archive::create(parallel_dir.path(), params.name(),
                                         64, Engine::with_threads(4));
  serial->add_file("big.bin", content);
  parallel->add_file("big.bin", content);
  ASSERT_EQ(serial->blocks(), parallel->blocks());

  // Same logical blocks ⇒ same files on disk, bit for bit, and those are
  // the content's zero-padded blocks entangled per the ground truth.
  FileBlockStore serial_store(serial_dir.path());
  FileBlockStore parallel_store(parallel_dir.path());
  ASSERT_EQ(serial_store.size(), parallel_store.size());
  std::vector<Bytes> expected;
  for (std::size_t off = 0; off < content.size(); off += 64) {
    Bytes& block = expected.emplace_back(64, 0);
    std::copy_n(content.begin() + static_cast<std::ptrdiff_t>(off),
                std::min<std::size_t>(64, content.size() - off),
                block.begin());
  }
  expect_encoding_of(params, 64, expected, serial_store);
  const Lattice lattice(params, serial->blocks(), Lattice::Boundary::kOpen);
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(serial->blocks()); ++i) {
    const auto a = serial_store.get_copy(BlockKey::data(i));
    const auto b = parallel_store.get_copy(BlockKey::data(i));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(*a, *b) << "d" << i;
    for (StrandClass cls : params.classes()) {
      const BlockKey key = BlockKey::parity(lattice.output_edge(i, cls));
      const auto pa = serial_store.get_copy(key);
      const auto pb = parallel_store.get_copy(key);
      ASSERT_TRUE(pa.has_value());
      ASSERT_TRUE(pb.has_value());
      ASSERT_EQ(*pa, *pb) << to_string(key);
    }
  }
}

TEST(ArchiveParallelIngest, ReadBackAndRepairAfterDamage) {
  Rng rng(93);
  const Bytes content = rng.random_block(64 * 120 + 5);

  TempDir dir("damage");
  {
    auto archive = tools::Archive::create(
        dir.path(), CodeParams(3, 2, 5).name(), 64, Engine::with_threads(4));
    archive->add_file("data.bin", content);
  }
  // Reopen (parallel again), damage, and read through lattice repair.
  auto archive = tools::Archive::open(dir.path(), Engine::with_threads(4));
  EXPECT_GT(archive->inject_damage(0.10, 5), 0u);
  const auto restored = archive->read_file("data.bin");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, content);
}

}  // namespace
}  // namespace aec
