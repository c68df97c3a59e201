// FileBlockStore's sharded layout: byte-identity with the flat layout,
// batch-op contracts, shard-count pinning across reopen (and rejection
// of a corrupt pin), observer notifications, write-behind, and
// concurrent access (the latter suites run under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "ae_test_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "core/codec/store_registry.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

class ShardedFileBlockStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_sharded_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path dir(const char* leaf) const { return base_ / leaf; }

  fs::path base_;
};

TEST_F(ShardedFileBlockStoreTest, PutFindEraseRoundTrip) {
  FileBlockStore store(dir("s"), 4);
  const BlockKey key = BlockKey::data(7);
  store.put(key, Bytes{1, 2, 3, 4});
  ASSERT_TRUE(store.contains(key));
  const Bytes* found = store.find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.contains(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(ShardedFileBlockStoreTest, ByteIdentityVsFileBlockStore) {
  // The same encode stream lands in both backends; every stored block
  // must read back identical, before and after reopen.
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 64;
  constexpr int kBlocks = 40;
  FileBlockStore flat(dir("flat"));
  FileBlockStore sharded(dir("sharded"), 4);
  const std::vector<Bytes> blocks =
      test::random_blocks(kBlocks, kBlockSize, 11);
  test::encode_into(params, kBlockSize, blocks, flat);
  test::encode_into(params, kBlockSize, blocks, sharded, 4);
  ASSERT_EQ(flat.size(), sharded.size());
  test::expect_encoding_of(params, kBlockSize, blocks, flat);

  const auto compare_all = [&](const BlockStore& a, const BlockStore& b) {
    const Lattice lat(params, kBlocks, Lattice::Boundary::kOpen);
    for (NodeIndex i = 1; i <= kBlocks; ++i) {
      std::vector<BlockKey> keys{BlockKey::data(i)};
      for (StrandClass cls : params.classes())
        keys.push_back(BlockKey::parity(lat.output_edge(i, cls)));
      for (const BlockKey& key : keys) {
        const auto va = a.get_copy(key);
        const auto vb = b.get_copy(key);
        ASSERT_TRUE(va.has_value()) << to_string(key);
        ASSERT_EQ(va, vb) << to_string(key);
      }
    }
  };
  compare_all(flat, sharded);

  // Reopen both (fresh index scan) and compare again. The first sharded
  // store is still open, so its write-behind queue must land before a
  // second open's directory walk can see every block.
  sharded.flush();
  FileBlockStore flat2(dir("flat"));
  FileBlockStore sharded2(dir("sharded"), 4);
  ASSERT_EQ(flat2.size(), sharded2.size());
  compare_all(flat2, sharded2);
}

TEST_F(ShardedFileBlockStoreTest, ReopenPinsTheCreationShardCount) {
  {
    FileBlockStore store(dir("s"), 3);
    EXPECT_EQ(store.shard_count(), 3u);
    store.put(BlockKey::data(1), Bytes{1});
    store.put(BlockKey::parity(Edge{StrandClass::kLeftHanded, 9}),
              Bytes{2});
  }
  // Whatever count a reopen asks for, the pinned layout wins — the
  // existing files keep resolving.
  FileBlockStore reopened(dir("s"), 16);
  EXPECT_EQ(reopened.shard_count(), 3u);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.get_copy(BlockKey::data(1)), Bytes{1});
  EXPECT_EQ(
      reopened.get_copy(BlockKey::parity(Edge{StrandClass::kLeftHanded, 9})),
      Bytes{2});
}

TEST_F(ShardedFileBlockStoreTest, CorruptShardMarkerIsRejected) {
  // shards.txt is outside input: a count that is not a number in
  // 1..kMaxShards is refused before any shard directory is created.
  for (const std::string marker : {"0", "abc", "-1", "4097"}) {
    const fs::path root = dir(("marker_" + marker).c_str());
    fs::create_directories(root);
    std::ofstream(root / "shards.txt") << marker << "\n";
    EXPECT_THROW(make_store("sharded(4)", root), CheckError) << marker;
    for (const auto& entry : fs::directory_iterator(root))
      EXPECT_FALSE(entry.is_directory() &&
                   entry.path().filename().string().starts_with("shard"))
          << marker << ": " << entry.path();
  }
}

TEST_F(ShardedFileBlockStoreTest, BatchOpsMatchSingleOps) {
  FileBlockStore store(dir("s"), 4);
  std::vector<std::pair<BlockKey, Bytes>> items;
  for (NodeIndex i = 1; i <= 20; ++i)
    items.emplace_back(BlockKey::data(i),
                       Bytes{static_cast<std::uint8_t>(i)});
  store.put_batch(items);
  EXPECT_EQ(store.size(), 20u);

  // get_batch keeps key order, resolves duplicates independently and
  // reports missing keys as nullopt.
  const std::vector<BlockKey> keys{BlockKey::data(3), BlockKey::data(99),
                                   BlockKey::data(3), BlockKey::data(20)};
  const auto payloads = store.get_batch(keys);
  ASSERT_EQ(payloads.size(), 4u);
  EXPECT_EQ(payloads[0], Bytes{3});
  EXPECT_FALSE(payloads[1].has_value());
  EXPECT_EQ(payloads[2], Bytes{3});
  EXPECT_EQ(payloads[3], Bytes{20});
}

TEST_F(ShardedFileBlockStoreTest, RescanSeesExternalChanges) {
  FileBlockStore store(dir("s"), 2);
  const BlockKey key = BlockKey::data(5);
  store.put(key, Bytes{1, 2});
  store.drop_payload_cache();
  fs::remove(store.path_of(key));  // sabotage behind the store's back
  EXPECT_TRUE(store.contains(key));  // index is stale…
  EXPECT_EQ(store.find(key), nullptr);  // …but reads detect the hole
  store.rescan();
  EXPECT_FALSE(store.contains(key));
}

TEST_F(ShardedFileBlockStoreTest, ObserverSeesEveryMutation) {
  struct Recorder final : BlockStore::Observer {
    std::vector<std::pair<BlockKey, bool>> events;
    void on_block(const BlockKey& key, bool present) override {
      events.emplace_back(key, present);
    }
  } recorder;
  FileBlockStore store(dir("s"), 2);
  store.set_observer(&recorder);
  store.put(BlockKey::data(1), Bytes{1});
  store.put_batch({{BlockKey::data(2), Bytes{2}}});
  store.erase(BlockKey::data(1));
  store.erase(BlockKey::data(42));  // absent: no event
  ASSERT_EQ(recorder.events.size(), 3u);
  EXPECT_EQ(recorder.events[0],
            (std::pair<BlockKey, bool>{BlockKey::data(1), true}));
  EXPECT_EQ(recorder.events[1],
            (std::pair<BlockKey, bool>{BlockKey::data(2), true}));
  EXPECT_EQ(recorder.events[2],
            (std::pair<BlockKey, bool>{BlockKey::data(1), false}));
}

TEST_F(ShardedFileBlockStoreTest, WorksAsCodecBackend) {
  // The whole encode→damage→repair cycle against real sharded files.
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 64;
  FileBlockStore store(dir("s"), 4);
  const std::vector<Bytes> truth = test::random_blocks(30, kBlockSize, 5);
  test::encode_into(params, kBlockSize, truth, store);
  store.erase(BlockKey::data(10));
  store.erase(BlockKey::data(11));
  store.drop_payload_cache();

  pipeline::ThreadPool pool(1);
  pipeline::ParallelRepairer repairer(params, 30, kBlockSize, &store, &pool);
  const RepairReport report = repairer.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  EXPECT_EQ(store.get_copy(BlockKey::data(10)), truth[9]);
  EXPECT_EQ(store.get_copy(BlockKey::data(11)), truth[10]);
}

TEST_F(ShardedFileBlockStoreTest, RegistryBuildsEveryFamily) {
  EXPECT_TRUE(StoreRegistry::instance().has_family("mem"));
  EXPECT_TRUE(StoreRegistry::instance().has_family("file"));
  EXPECT_TRUE(StoreRegistry::instance().has_family("sharded"));

  // Every built-in family locks itself, so any of them backs a session.
  auto mem = make_store("mem", dir("unused"));
  EXPECT_TRUE(mem->thread_safe());
  auto file = make_store("file", dir("f"));
  const auto* flat = dynamic_cast<FileBlockStore*>(file.get());
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->shard_count(), 1u);
  EXPECT_FALSE(flat->write_behind());
  EXPECT_TRUE(file->thread_safe());
  auto sharded = make_store("sharded(8)", dir("s8"));
  auto* typed = dynamic_cast<FileBlockStore*>(sharded.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->shard_count(), 8u);
  EXPECT_TRUE(typed->thread_safe());
  auto sharded_default = make_store("sharded", dir("sdef"));
  EXPECT_EQ(
      dynamic_cast<FileBlockStore*>(sharded_default.get())->shard_count(),
      FileBlockStore::kDefaultShards);

  EXPECT_THROW(make_store("tape", dir("t")), CheckError);
  EXPECT_THROW(make_store("sharded(0)", dir("t")), CheckError);
  EXPECT_THROW(make_store("sharded(1,2)", dir("t")), CheckError);
  EXPECT_THROW(make_store("file(3)", dir("t")), CheckError);
  EXPECT_THROW(make_store("sharded(", dir("t")), CheckError);
  EXPECT_THROW(make_store("", dir("t")), CheckError);
}

// --- write-behind -----------------------------------------------------------

TEST_F(ShardedFileBlockStoreTest, WriteBehindReadsYourWrites) {
  // Puts are visible to every read path immediately, before any flush:
  // unflushed blocks live in the payload cache, which all reads consult
  // before touching files.
  FileBlockStore store(dir("s"), 2);
  ASSERT_TRUE(store.write_behind());
  for (NodeIndex i = 1; i <= 40; ++i)
    store.put(BlockKey::data(i), Bytes{static_cast<std::uint8_t>(i)});
  EXPECT_EQ(store.size(), 40u);
  for (NodeIndex i = 1; i <= 40; ++i) {
    EXPECT_EQ(store.get_copy(BlockKey::data(i)),
              Bytes{static_cast<std::uint8_t>(i)});
  }
  const auto payloads = store.get_batch({BlockKey::data(7)});
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], Bytes{7});
}

TEST_F(ShardedFileBlockStoreTest, FlushWritesLandsQueuedFiles) {
  FileBlockStore store(dir("s"), 4);
  for (NodeIndex i = 1; i <= 64; ++i)
    store.put(BlockKey::data(i), Bytes{static_cast<std::uint8_t>(i), 9});
  store.flush();
  for (NodeIndex i = 1; i <= 64; ++i)
    EXPECT_TRUE(fs::exists(store.path_of(BlockKey::data(i)))) << i;
  // An independent open scans complete files.
  FileBlockStore reader(dir("s"), 4);
  EXPECT_EQ(reader.size(), 64u);
  EXPECT_EQ(reader.get_copy(BlockKey::data(33)), (Bytes{33, 9}));
}

TEST_F(ShardedFileBlockStoreTest, DestructorDrainsTheQueue) {
  {
    FileBlockStore store(dir("s"), 2);
    for (NodeIndex i = 1; i <= 50; ++i)
      store.put(BlockKey::data(i), Bytes{static_cast<std::uint8_t>(i)});
  }  // no explicit flush
  FileBlockStore reopened(dir("s"), 2);
  EXPECT_EQ(reopened.size(), 50u);
  EXPECT_EQ(reopened.get_copy(BlockKey::data(50)), Bytes{50});
}

TEST_F(ShardedFileBlockStoreTest, EraseCancelsQueuedWrites) {
  // erase purges the key's queued writes (and waits out an in-flight
  // one), so the flusher can never resurrect an erased block's file.
  FileBlockStore store(dir("s"), 1);
  for (int round = 0; round < 200; ++round) {
    const BlockKey key = BlockKey::data(1 + (round % 5));
    store.put(key, Bytes{1, 2, 3});
    EXPECT_TRUE(store.erase(key));
    EXPECT_FALSE(store.contains(key));
  }
  store.flush();
  for (NodeIndex i = 1; i <= 5; ++i) {
    EXPECT_FALSE(store.contains(BlockKey::data(i)));
    EXPECT_FALSE(fs::exists(store.path_of(BlockKey::data(i)))) << i;
  }
}

TEST_F(ShardedFileBlockStoreTest, DropPayloadCacheDrainsFirst) {
  // Dropping the cache in write-behind mode must not lose unflushed
  // blocks: the drain runs first, so post-drop reads resolve from
  // complete files.
  FileBlockStore store(dir("s"), 2);
  store.put(BlockKey::data(3), Bytes{4, 5, 6});
  store.drop_payload_cache();
  EXPECT_TRUE(fs::exists(store.path_of(BlockKey::data(3))));
  EXPECT_EQ(store.get_copy(BlockKey::data(3)), (Bytes{4, 5, 6}));
}

TEST_F(ShardedFileBlockStoreTest, SyncModeWritesInline) {
  FileBlockStore store(dir("s"), 2, /*write_behind=*/false);
  EXPECT_FALSE(store.write_behind());
  store.put(BlockKey::data(1), Bytes{8});
  EXPECT_TRUE(fs::exists(store.path_of(BlockKey::data(1))));
  store.flush();  // no-op, must not hang
}

TEST_F(ShardedFileBlockStoreTest, RegistryParsesWriteBehindMode) {
  auto wb = make_store("sharded(2,wb)", dir("wb"));
  EXPECT_TRUE(dynamic_cast<FileBlockStore*>(wb.get())->write_behind());
  auto sync = make_store("sharded(2,sync)", dir("sync"));
  EXPECT_FALSE(dynamic_cast<FileBlockStore*>(sync.get())->write_behind());
  EXPECT_THROW(make_store("sharded(2,later)", dir("t")), CheckError);
}

// --- concurrency (runs under the TSan CI job) -------------------------------

TEST_F(ShardedFileBlockStoreTest, ConcurrentMixedAccessIsSafe) {
  // Writers, readers and erasers race across overlapping key ranges.
  // Every writer writes the same deterministic payload per key, so the
  // final state is exact: a key is either absent or holds its payload.
  FileBlockStore store(dir("s"), 8);
  constexpr NodeIndex kKeys = 120;
  const auto payload_of = [](NodeIndex i) {
    return Bytes{static_cast<std::uint8_t>(i), 7,
                 static_cast<std::uint8_t>(i * 3)};
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread touches every key, staggered so batches overlap.
      std::vector<std::pair<BlockKey, Bytes>> batch;
      for (NodeIndex i = 1 + t; i <= kKeys; i += 2) {
        batch.emplace_back(BlockKey::data(i), payload_of(i));
        if (batch.size() == 8) {
          store.put_batch(std::move(batch));
          batch.clear();
        }
      }
      if (!batch.empty()) store.put_batch(std::move(batch));
      std::vector<BlockKey> keys;
      for (NodeIndex i = 1; i <= kKeys; ++i) keys.push_back(BlockKey::data(i));
      const auto payloads = store.get_batch(keys);
      for (NodeIndex i = 1; i <= kKeys; ++i) {
        if (payloads[static_cast<std::size_t>(i - 1)]) {
          EXPECT_EQ(*payloads[static_cast<std::size_t>(i - 1)],
                    payload_of(i));
        }
      }
      // Erase a thread-specific stride (disjoint across threads).
      for (NodeIndex i = 1 + t; i <= kKeys; i += 16) {
        store.erase(BlockKey::data(i));
        store.get_copy(BlockKey::data(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (NodeIndex i = 1; i <= kKeys; ++i) {
    const auto value = store.get_copy(BlockKey::data(i));
    if (value) {
      EXPECT_EQ(*value, payload_of(i));
    }
  }
}

TEST_F(ShardedFileBlockStoreTest, ConcurrentWriteBehindBarriersAreSafe) {
  // Producers racing the drain barriers: put_batch bursts (deep enough
  // to trip the per-shard backpressure bound on a 1-shard store) against
  // concurrent flush/drop_payload_cache/erase callers.
  FileBlockStore store(dir("s"), 1);
  constexpr NodeIndex kKeys = 64;
  const auto payload_of = [](NodeIndex i) {
    return Bytes{static_cast<std::uint8_t>(i), 11};
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 12; ++round) {
        std::vector<std::pair<BlockKey, Bytes>> batch;
        for (NodeIndex i = 1; i <= kKeys; ++i)
          batch.emplace_back(BlockKey::data(i), payload_of(i));
        store.put_batch(std::move(batch));
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 20; ++round) {
      store.flush();
      store.drop_payload_cache();
    }
  });
  threads.emplace_back([&] {
    for (int round = 0; round < 50; ++round) {
      store.erase(BlockKey::data(1 + (round % kKeys)));
      store.get_copy(BlockKey::data(1 + (round % kKeys)));
    }
  });
  for (std::thread& t : threads) t.join();

  store.flush();
  for (NodeIndex i = 1; i <= kKeys; ++i) {
    const auto value = store.get_copy(BlockKey::data(i));
    if (value) {
      EXPECT_EQ(*value, payload_of(i));
    }
  }
}

}  // namespace
}  // namespace aec
