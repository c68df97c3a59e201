// Block (common/block.h) and the BlockStore Block contract: a copy of a
// Block shares its buffer; every library store answers get_blocks like
// get_copy, with references; a Block read before an overwrite, an erase,
// a ring eviction, a take_all or a flush_staged keeps its bytes; a store
// that implements only the Bytes methods (like the benchmark's
// TimedStore decorator) gets one Bytes batch per Block batch and runs an
// archive byte-identically; and readers holding Blocks race writers and
// a failing cluster node cleanly (the stress test runs under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/block.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/xor_engine.h"
#include "core/codec/file_block_store.h"
#include "core/codec/store_registry.h"
#include "pipeline/concurrent_block_store.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& leaf) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" +
                     info->name() + "_" + leaf;
  std::replace(name.begin(), name.end(), '/', '_');
  const fs::path dir = fs::temp_directory_path() /
                       ("aec_block_test_" + std::to_string(::getpid()) +
                        "_" + name);
  fs::remove_all(dir);
  return dir;
}

Bytes filled(std::size_t n, std::uint8_t value) { return Bytes(n, value); }

// --- Block ----------------------------------------------------------------

TEST(BlockTest, CopiesShareOneBuffer) {
  const Block a = Block::copy_of(Bytes{1, 2, 3, 4});
  const Block b = a;
  EXPECT_TRUE(a.shares(b));
  EXPECT_EQ(a.data(), b.data());
  Block c;
  c = b;
  EXPECT_TRUE(c.shares(a));
  const Block d = std::move(c);
  EXPECT_FALSE(c);  // a moved-from Block is null
  EXPECT_TRUE(d.shares(a));
  EXPECT_EQ(d, (Bytes{1, 2, 3, 4}));
  // A fresh copy of the same bytes is equal but not shared.
  const Block e = Block::copy_of(a);
  EXPECT_EQ(e, a);
  EXPECT_FALSE(e.shares(a));
  EXPECT_NE(e.data(), a.data());
}

TEST(BlockTest, AdoptKeepsTheVectorsBytesWithoutCopying) {
  Bytes bytes = {9, 8, 7, 6, 5};
  const std::uint8_t* where = bytes.data();
  const Block block = Block::adopt(std::move(bytes));
  EXPECT_EQ(block.data(), where);
  EXPECT_EQ(block.size(), 5u);
  EXPECT_EQ(block, (Bytes{9, 8, 7, 6, 5}));
  const Block shared = block;
  EXPECT_EQ(shared.data(), where);
  EXPECT_EQ(Block::adopt(Bytes()).size(), 0u);
  EXPECT_TRUE(Block::adopt(Bytes()));  // an empty block, not a null one
}

TEST(BlockTest, NullBlockBehavesAsOne) {
  const Block null;
  EXPECT_FALSE(null);
  EXPECT_EQ(null.size(), 0u);
  EXPECT_TRUE(null.empty());
  EXPECT_TRUE(null.view().empty());
  EXPECT_EQ(null.begin(), null.end());
  EXPECT_EQ(null.to_bytes(), Bytes());
  EXPECT_TRUE(null == Block());
  EXPECT_FALSE(null.shares(Block()));
  // Null is not the empty block, and equals no view.
  const Block empty = Block::copy_of(Bytes());
  EXPECT_TRUE(empty);
  EXPECT_FALSE(null == empty);
  EXPECT_FALSE(null == BytesView());
  EXPECT_TRUE(empty == BytesView());
  // A null assigned over a block releases it; copies of null stay null.
  Block b = Block::zeros(8);
  b = null;
  EXPECT_FALSE(b);
  const Block copy = null;
  EXPECT_FALSE(copy);
}

TEST(BlockTest, BuildZerosAndXorOf) {
  const Block z = Block::zeros(100);
  EXPECT_EQ(z, filled(100, 0));
  const Block seq = Block::build(
      5, [](std::span<std::uint8_t> out) {
        for (std::size_t i = 0; i < out.size(); ++i)
          out[i] = static_cast<std::uint8_t>(i + 1);
      });
  EXPECT_EQ(seq, (Bytes{1, 2, 3, 4, 5}));
  Rng rng(3);
  const Bytes a = rng.random_block(4097);
  const Bytes b = rng.random_block(4097);
  Bytes want(a.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    want[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
  const Block x = xor_of(a, b);
  EXPECT_EQ(x, want);
  EXPECT_EQ(xor_of(x, b), a);
  EXPECT_THROW(xor_of(a, BytesView(b).first(10)), CheckError);
}

// --- the Block contract, per registry family ------------------------------

class BlockStoreContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    root_ = scratch_dir("root");
    store_ = make_store(GetParam(), root_);
  }
  void TearDown() override {
    store_.reset();
    fs::remove_all(root_);
  }

  fs::path root_;
  std::unique_ptr<BlockStore> store_;
};

TEST_P(BlockStoreContractTest, GetBlocksMatchesGetCopy) {
  Rng rng(31);
  std::vector<BlockKey> keys;
  for (NodeIndex i = 1; i <= 60; ++i) {
    keys.push_back(BlockKey::data(i));
    keys.push_back(BlockKey::parity(Edge{StrandClass::kRightHanded, i}));
  }
  // Half through put_blocks, half through the Bytes adapter.
  std::vector<std::pair<BlockKey, Block>> batch;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (j % 2 == 0)
      batch.emplace_back(keys[j], Block::adopt(rng.random_block(96)));
    else
      store_->put(keys[j], rng.random_block(96));
  }
  store_->put_blocks(std::move(batch));
  for (NodeIndex i = 1; i <= 60; i += 4)
    ASSERT_TRUE(store_->erase(BlockKey::data(i)));

  // Missing keys, duplicates of present and of erased keys, all shuffled.
  std::vector<BlockKey> asked = keys;
  asked.push_back(BlockKey::data(999));
  asked.push_back(keys[5]);
  asked.push_back(keys[5]);
  asked.push_back(BlockKey::data(1));
  asked.push_back(BlockKey::data(1));
  std::shuffle(asked.begin(), asked.end(), std::mt19937_64(7));

  const std::vector<Block> blocks = store_->get_blocks(asked);
  const std::vector<std::optional<Bytes>> batch_copies =
      store_->get_batch(asked);
  ASSERT_EQ(blocks.size(), asked.size());
  ASSERT_EQ(batch_copies.size(), asked.size());
  std::size_t present = 0;
  for (std::size_t j = 0; j < asked.size(); ++j) {
    const std::optional<Bytes> copy = store_->get_copy(asked[j]);
    EXPECT_EQ(static_cast<bool>(blocks[j]), copy.has_value())
        << to_string(asked[j]);
    EXPECT_EQ(batch_copies[j], copy) << to_string(asked[j]);
    if (copy) {
      ++present;
      EXPECT_EQ(blocks[j], *copy) << to_string(asked[j]);
      EXPECT_EQ(store_->get_block(asked[j]), *copy) << to_string(asked[j]);
    } else {
      EXPECT_FALSE(store_->get_block(asked[j])) << to_string(asked[j]);
    }
  }
  EXPECT_EQ(present, asked.size() - 15 - 1 - 2);
  EXPECT_TRUE(store_->get_blocks({}).empty());
}

TEST_P(BlockStoreContractTest, ABlockReadBeforeAnOverwriteOrEraseKeepsIt) {
  const BlockKey key = BlockKey::parity(Edge{StrandClass::kLeftHanded, 9});
  store_->put_block(key, Block::copy_of(filled(128, 0x11)));
  const Block first = store_->get_block(key);
  store_->put_block(key, Block::copy_of(filled(128, 0x22)));
  EXPECT_EQ(first, filled(128, 0x11));
  const Block second = store_->get_block(key);
  EXPECT_EQ(second, filled(128, 0x22));
  store_->put(key, filled(128, 0x33));  // the Bytes adapter too
  EXPECT_EQ(second, filled(128, 0x22));
  const Block third = store_->get_block(key);
  ASSERT_TRUE(store_->erase(key));
  EXPECT_FALSE(store_->get_block(key));
  EXPECT_EQ(first, filled(128, 0x11));
  EXPECT_EQ(second, filled(128, 0x22));
  EXPECT_EQ(third, filled(128, 0x33));
}

INSTANTIATE_TEST_SUITE_P(Families, BlockStoreContractTest,
                         ::testing::Values("mem", "file", "sharded(4)",
                                           "sharded(4,sync)",
                                           "cluster(4,strand,mem)"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           std::string name = p.param;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

// --- Block lifetimes across the stores' own moves -------------------------

TEST(BlockLifetimeTest, ARingHitSharesAndOutlivesItsEviction) {
  // The flat layout is one ring; four shards need more later writes
  // before each of theirs has turned over.
  for (const auto& [spec, turnovers] :
       {std::pair{"file", 1}, std::pair{"sharded(4)", 6}}) {
    SCOPED_TRACE(spec);
    const fs::path root = scratch_dir(spec[0] == 'f' ? "file" : "sharded");
    {
      const std::unique_ptr<BlockStore> store = make_store(spec, root);
      const BlockKey key = BlockKey::data(1);
      const Block written = Block::copy_of(Rng(5).random_block(256));
      store->put_block(key, written);
      const Block hit = store->get_block(key);
      EXPECT_TRUE(hit.shares(written)) << "a ring hit shares the write";
      // Enough later writes that every shard's ring has turned over.
      const auto later = static_cast<NodeIndex>(
          turnovers * FileBlockStore::kRingBlocksPerShard + 1);
      for (NodeIndex i = 2; i <= later + 1; ++i)
        store->put_block(BlockKey::data(i), Block::zeros(256));
      store->flush();
      const Block cold = store->get_block(key);
      EXPECT_FALSE(cold.shares(written)) << "still in the ring";
      EXPECT_EQ(cold, written);
      EXPECT_EQ(hit, written);
    }
    fs::remove_all(root);
  }
}

TEST(BlockLifetimeTest, TakeAllMovesTheBlocksAndAHeldOneKeepsItsBytes) {
  pipeline::ConcurrentBlockStore store;
  const Block written = Block::copy_of(filled(64, 0x5a));
  store.put_block(BlockKey::data(3), written);
  const Block held = store.get_block(BlockKey::data(3));
  auto items = store.take_all();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].second.shares(held)) << "take_all moves, not copies";
  items.clear();
  EXPECT_FALSE(store.get_block(BlockKey::data(3)));
  EXPECT_EQ(held, filled(64, 0x5a));
}

TEST(BlockLifetimeTest, FlushStagedHandsTheStagedBlocksToTheChild) {
  const fs::path root = scratch_dir("cluster");
  {
    cluster::ClusterStore store(root, 4, cluster::PlacementPolicy::kStrand,
                                "mem");
    // One key per node, so each node has a staged write to hand over.
    std::vector<BlockKey> on_node(4);
    std::vector<bool> found(4, false);
    for (NodeIndex i = 1; std::count(found.begin(), found.end(), true) < 4;
         ++i) {
      const BlockKey key = BlockKey::data(i);
      const std::uint32_t node = store.node_of(key);
      if (!found[node]) {
        on_node[node] = key;
        found[node] = true;
      }
    }
    // heal_node flushes the staged writes into the old child,
    // replace_node into a fresh one.
    for (const std::uint32_t node : {1u, 2u}) {
      SCOPED_TRACE(node);
      const BlockKey key = on_node[node];
      store.put_block(key, Block::copy_of(filled(64, 0x01)));
      store.fail_node(node);
      const Block staged = Block::copy_of(filled(64, 0x7e));
      store.put_block(key, staged);
      const Block held = store.get_block(key);
      EXPECT_TRUE(held.shares(staged));
      if (node == 1)
        store.heal_node(node);
      else
        store.replace_node(node);
      EXPECT_EQ(held, filled(64, 0x7e));
      const Block after = store.get_block(key);
      EXPECT_TRUE(after.shares(staged)) << "the child got the staged Block";
    }
  }
  fs::remove_all(root);
}

// --- a store that implements only the Bytes methods -----------------------

/// Overrides exactly what the benchmark's TimedStore decorator
/// (perfbench/timed_store.h) overrides, forwards each call to its child
/// and counts the payload calls it receives.
class BytesOnlyStore final : public BlockStore {
 public:
  explicit BytesOnlyStore(std::unique_ptr<BlockStore> child)
      : child_(std::move(child)) {}

  void put(const BlockKey& key, Bytes value) override {
    ++puts;
    child_->put(key, std::move(value));
  }
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override {
    ++put_batches;
    child_->put_batch(std::move(items));
  }
  const Bytes* find(const BlockKey& key) const override {
    return child_->find(key);
  }
  std::optional<Bytes> get_copy(const BlockKey& key) const override {
    ++get_copies;
    return child_->get_copy(key);
  }
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override {
    ++get_batches;
    return child_->get_batch(keys);
  }
  void prefetch(const std::vector<BlockKey>& keys) const override {
    child_->prefetch(keys);
  }
  void flush() const override { child_->flush(); }
  bool contains(const BlockKey& key) const override {
    return child_->contains(key);
  }
  bool erase(const BlockKey& key) override { return child_->erase(key); }
  std::uint64_t size() const override { return child_->size(); }
  bool thread_safe() const noexcept override { return child_->thread_safe(); }
  void drop_payload_cache() const override { child_->drop_payload_cache(); }
  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override {
    return child_->for_each_key(fn);
  }
  void rescan() override { child_->rescan(); }
  void set_observer(Observer* observer) override {
    child_->set_observer(observer);
  }
  Observer* observer() const override { return child_->observer(); }

  mutable std::atomic<std::uint64_t> puts{0};
  mutable std::atomic<std::uint64_t> put_batches{0};
  mutable std::atomic<std::uint64_t> get_copies{0};
  mutable std::atomic<std::uint64_t> get_batches{0};

 private:
  std::unique_ptr<BlockStore> child_;
};

TEST(BytesOnlyDecoratorTest, EachBlockBatchArrivesAsOneBytesBatch) {
  BytesOnlyStore store(std::make_unique<pipeline::ConcurrentBlockStore>());
  std::vector<std::pair<BlockKey, Block>> items;
  std::vector<BlockKey> keys;
  for (NodeIndex i = 1; i <= 10; ++i) {
    items.emplace_back(BlockKey::data(i),
                       Block::copy_of(filled(32, static_cast<std::uint8_t>(i))));
    keys.push_back(BlockKey::data(i));
  }
  store.put_blocks(std::move(items));
  EXPECT_EQ(store.put_batches.load(), 1u);
  EXPECT_EQ(store.puts.load(), 0u);
  keys.push_back(BlockKey::data(77));  // missing
  const std::vector<Block> got = store.get_blocks(keys);
  EXPECT_EQ(store.get_batches.load(), 1u);
  EXPECT_EQ(store.get_copies.load(), 0u);
  ASSERT_EQ(got.size(), 11u);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_EQ(got[j], filled(32, static_cast<std::uint8_t>(j + 1)));
  EXPECT_FALSE(got[10]);
  EXPECT_EQ(store.get_block(BlockKey::data(4)), filled(32, 4));
  EXPECT_EQ(store.get_batches.load(), 2u);
  store.put_block(BlockKey::data(11), Block::zeros(32));
  EXPECT_EQ(store.puts.load(), 1u);
  EXPECT_EQ(store.get_copy(BlockKey::data(11)), filled(32, 0));
}

TEST(BytesOnlyDecoratorTest, AnArchiveRunsByteIdenticallyThroughIt) {
  // Two archives, one over the decorator and one over the bare store,
  // take the same puts, gets, damage and scrub.
  auto decorated = std::make_shared<BytesOnlyStore*>(nullptr);
  auto bare = std::make_shared<BlockStore*>(nullptr);
  StoreRegistry::instance().register_family(
      "bytesonly", [decorated](const StoreSpec& spec, const fs::path& root) {
        auto store =
            std::make_unique<BytesOnlyStore>(make_store(spec.args.at(0), root));
        *decorated = store.get();
        return std::unique_ptr<BlockStore>(std::move(store));
      });
  StoreRegistry::instance().register_family(
      "bare", [bare](const StoreSpec& spec, const fs::path& root) {
        std::unique_ptr<BlockStore> store = make_store(spec.args.at(0), root);
        *bare = store.get();
        return store;
      });

  Rng rng(41);
  const Bytes a = rng.random_block(200 * 1024 + 3);
  const Bytes b = rng.random_block(64 * 1024);
  for (const std::string child : {"mem", "sharded(4)"}) {
    SCOPED_TRACE(child);
    const fs::path root_d = scratch_dir("decorated");
    const fs::path root_b = scratch_dir("bare");
    {
      auto through = tools::Archive::create(root_d, "AE(3,2,5)", 1024,
                                            Engine::with_threads(2),
                                            "bytesonly(" + child + ")");
      auto direct = tools::Archive::create(root_b, "AE(3,2,5)", 1024,
                                           Engine::with_threads(2),
                                           "bare(" + child + ")");
      BytesOnlyStore& store_d = **decorated;
      BlockStore& store_b = **bare;
      for (tools::Archive* archive : {through.get(), direct.get()}) {
        archive->add_file("a", a);
        archive->add_file("b", b);
        EXPECT_EQ(archive->read_file("a"), a);
      }
      EXPECT_EQ(through->inject_damage(0.15, 9),
                direct->inject_damage(0.15, 9));
      EXPECT_EQ(through->read_file("b"), b);  // degraded, repairs on read
      EXPECT_EQ(direct->read_file("b"), b);
      const tools::ScrubReport scrub_d = through->scrub();
      const tools::ScrubReport scrub_b = direct->scrub();
      EXPECT_EQ(scrub_d.repair.nodes_repaired_total,
                scrub_b.repair.nodes_repaired_total);
      EXPECT_EQ(scrub_d.repair.edges_repaired_total,
                scrub_b.repair.edges_repaired_total);
      EXPECT_EQ(scrub_d.repair.nodes_unrecovered, 0u);
      EXPECT_EQ(scrub_d.inconsistent_parities, 0u);
      EXPECT_EQ(through->read_file("a"), a);

      ASSERT_EQ(store_d.size(), store_b.size());
      std::vector<BlockKey> keys;
      store_b.for_each_key([&](const BlockKey& key) { keys.push_back(key); });
      ASSERT_EQ(keys.size(), store_b.size());
      for (const BlockKey& key : keys)
        ASSERT_EQ(store_d.get_block(key), store_b.get_copy(key).value())
            << to_string(key);
      // Every payload call the library made arrived as a batch.
      EXPECT_GT(store_d.put_batches.load(), 0u);
      EXPECT_GT(store_d.get_batches.load(), 0u);
      EXPECT_EQ(store_d.puts.load(), 0u);
      EXPECT_EQ(store_d.get_copies.load(), 0u);
    }
    fs::remove_all(root_d);
    fs::remove_all(root_b);
  }
}

// --- readers holding Blocks beside writers and a failing node -------------

TEST(BlockStoreStressTest, ReadersHoldBlocksWhileWritersOverwriteAndNodesFail) {
  const fs::path root = scratch_dir("cluster");
  {
    cluster::ClusterStore store(root, 4, cluster::PlacementPolicy::kStrand,
                                "mem");
    constexpr NodeIndex kKeys = 48;
    constexpr std::size_t kSize = 192;
    // Every block is one byte value throughout: a torn or rewritten
    // block shows two.
    const auto uniform = [](std::uint8_t value) {
      return Block::build(kSize, [value](std::span<std::uint8_t> out) {
        std::memset(out.data(), value, out.size());
      });
    };
    const auto intact = [](const Block& block) {
      return block.size() == kSize &&
             std::all_of(block.begin(), block.end(), [&](std::uint8_t x) {
               return x == block.data()[0];
             });
    };
    std::vector<BlockKey> keys;
    for (NodeIndex i = 1; i <= kKeys; ++i) {
      keys.push_back(BlockKey::data(i));
      store.put_block(keys.back(), uniform(static_cast<std::uint8_t>(i)));
    }

    std::atomic<bool> stop{false};
    std::atomic<int> broken{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w)
      threads.emplace_back([&, w] {
        std::mt19937 rng(100 + w);
        for (std::uint8_t value = 0; !stop.load(); ++value) {
          const BlockKey& key = keys[rng() % keys.size()];
          if (rng() % 4 == 0)
            store.erase(key);
          else
            store.put_block(key, uniform(value));
        }
      });
    for (int r = 0; r < 2; ++r)
      threads.emplace_back([&] {
        std::deque<std::vector<Block>> held;  // the last few reads
        while (!stop.load()) {
          held.push_back(store.get_blocks(keys));
          if (held.size() > 4) held.pop_front();
          for (const std::vector<Block>& read : held)
            for (const Block& block : read)
              if (block && !intact(block)) broken.fetch_add(1);
        }
      });
    // Fail and heal (or replace) nodes under the readers and writers.
    for (int cycle = 0; cycle < 40; ++cycle) {
      const std::uint32_t node = static_cast<std::uint32_t>(cycle % 4);
      store.fail_node(node);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (cycle % 3 == 2)
        store.replace_node(node);
      else
        store.heal_node(node);
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(broken.load(), 0);
    for (const Block& block : store.get_blocks(keys))
      EXPECT_TRUE(!block || intact(block));
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace aec
