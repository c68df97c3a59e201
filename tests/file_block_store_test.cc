#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ae_test_util.h"
#include "api/engine.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "core/codec/store_registry.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

class FileBlockStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aec_store_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(FileBlockStoreTest, PutFindRoundTrip) {
  FileBlockStore store(root_);
  const BlockKey key = BlockKey::data(7);
  store.put(key, Bytes{1, 2, 3, 4});
  ASSERT_TRUE(store.contains(key));
  EXPECT_EQ(store.get_copy(key), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(FileBlockStoreTest, PersistsAcrossReopen) {
  {
    FileBlockStore store(root_);
    store.put(BlockKey::data(1), Bytes{9});
    store.put(BlockKey::parity(Edge{StrandClass::kRightHanded, 3}),
              Bytes{8});
  }
  FileBlockStore reopened(root_);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.get_copy(
                BlockKey::parity(Edge{StrandClass::kRightHanded, 3})),
            Bytes{8});
}

TEST_F(FileBlockStoreTest, EraseRemovesFile) {
  FileBlockStore store(root_);
  const BlockKey key = BlockKey::parity(Edge{StrandClass::kLeftHanded, 5});
  store.put(key, Bytes{1});
  const fs::path path = store.path_of(key);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(store.contains(key));
  EXPECT_FALSE(store.erase(key));
}

TEST_F(FileBlockStoreTest, DataAndParityNamespacesAreSeparate) {
  FileBlockStore store(root_);
  store.put(BlockKey::data(5), Bytes{1});
  store.put(BlockKey::parity(Edge{StrandClass::kHorizontal, 5}), Bytes{2});
  store.put(BlockKey::parity(Edge{StrandClass::kRightHanded, 5}), Bytes{3});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(*store.get_copy(BlockKey::data(5)), Bytes{1});
  EXPECT_EQ(
      *store.get_copy(BlockKey::parity(Edge{StrandClass::kRightHanded, 5})),
      Bytes{3});
}

TEST_F(FileBlockStoreTest, ExternalDeletionSeenAfterRescan) {
  FileBlockStore store(root_);
  const BlockKey key = BlockKey::data(2);
  store.put(key, Bytes{1, 2});
  // A second store on the root starts with an empty ring, so it reads
  // the block's file.
  FileBlockStore reader(root_);
  fs::remove(reader.path_of(key));  // sabotage behind the store's back
  // The index is stale until rescan; a read detects the hole lazily.
  EXPECT_TRUE(reader.contains(key));
  EXPECT_EQ(reader.get_copy(key), std::nullopt);
  reader.rescan();
  EXPECT_FALSE(reader.contains(key));
  // The writer's ring still holds the block; its rescan empties the ring.
  EXPECT_EQ(store.get_copy(key), (Bytes{1, 2}));
  store.rescan();
  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.get_copy(key), std::nullopt);
}

TEST_F(FileBlockStoreTest, BothLayoutsLiveAtLiteralPaths) {
  // path_of() moves with the layout, so it cannot catch a layout drift:
  // these are the literal paths existing archives hold. The shard of a
  // key in sharded(3) is mixed_block_key_hash(key) % 3 — d7 and p(LH,4)
  // in shard0, p(RH,9) in shard1, d12 in shard2.
  const auto slurp = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto spit = [](const fs::path& path, const std::string& text) {
    fs::create_directories(path.parent_path());
    std::ofstream(path, std::ios::binary) << text;
  };
  const BlockKey d7 = BlockKey::data(7);
  const BlockKey rh9 = BlockKey::parity(Edge{StrandClass::kRightHanded, 9});
  const BlockKey d12 = BlockKey::data(12);
  const BlockKey lh4 = BlockKey::parity(Edge{StrandClass::kLeftHanded, 4});

  const fs::path flat = root_ / "flat";
  const fs::path sharded = root_ / "sharded";
  for (const auto& [spec, root] : {std::pair{"file", flat},
                                   std::pair{"sharded(3)", sharded}}) {
    const auto store = make_store(spec, root);
    store->put(d7, Bytes{'a'});
    store->put(rh9, Bytes{'b'});
  }  // the sharded store's destructor drains its write-behind queue

  EXPECT_EQ(slurp(flat / "d" / "7"), "a");
  EXPECT_EQ(slurp(flat / "p" / "RH" / "9"), "b");
  EXPECT_FALSE(fs::exists(flat / "shards.txt"));
  EXPECT_FALSE(fs::exists(flat / "shard0"));

  EXPECT_EQ(slurp(sharded / "shards.txt"), "3\n");
  EXPECT_EQ(slurp(sharded / "shard0" / "d" / "7"), "a");
  EXPECT_EQ(slurp(sharded / "shard1" / "p" / "RH" / "9"), "b");
  EXPECT_FALSE(fs::exists(sharded / "d"));
  EXPECT_FALSE(fs::exists(sharded / "shard3"));

  // Block files written by hand at those paths open, are indexed and
  // read back.
  spit(flat / "d" / "12", "c");
  spit(flat / "p" / "LH" / "4", "d");
  spit(sharded / "shard2" / "d" / "12", "c");
  spit(sharded / "shard0" / "p" / "LH" / "4", "d");
  for (const auto& [spec, root] : {std::pair{"file", flat},
                                   std::pair{"sharded(3)", sharded}}) {
    const auto store = make_store(spec, root);
    EXPECT_EQ(store->size(), 4u) << spec;
    EXPECT_TRUE(store->contains(d12)) << spec;
    EXPECT_TRUE(store->contains(lh4)) << spec;
    EXPECT_EQ(store->get_copy(d7), Bytes{'a'}) << spec;
    EXPECT_EQ(store->get_copy(rh9), Bytes{'b'}) << spec;
    EXPECT_EQ(store->get_copy(d12), Bytes{'c'}) << spec;
    EXPECT_EQ(store->get_copy(lh4), Bytes{'d'}) << spec;
  }
}

TEST_F(FileBlockStoreTest, BlockFilesFollowTheUmask) {
  // Every write mode creates block files 0666 & ~umask, as fopen does,
  // so a group-writable umask keeps an archive group-writable.
  const BlockKey key = BlockKey::data(1);
  FileBlockStore flat(root_ / "flat");
  FileBlockStore sync(root_ / "sync", 2, /*write_behind=*/false);
  FileBlockStore queued(root_ / "queued", 2, /*write_behind=*/true);
  const mode_t saved = ::umask(002);
  for (FileBlockStore* store : {&flat, &sync, &queued}) {
    store->put(key, Bytes{1});
    store->flush();
  }
  ::umask(saved);
  for (const FileBlockStore* store : {&flat, &sync, &queued})
    EXPECT_EQ(fs::status(store->path_of(key)).permissions() & fs::perms::all,
              static_cast<fs::perms>(0664))
        << store->path_of(key);
}

TEST_F(FileBlockStoreTest, ConcurrentCallersShareOneStore) {
  // The store locks itself: four threads mutate and read their own keys
  // through every entry point at once (run under TSan in CI).
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 50;
  FileBlockStore store(root_);
  const auto payload = [](NodeIndex i) {
    return Bytes(32, static_cast<std::uint8_t>(i % 251));
  };
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 1; k <= kKeysPerThread; ++k) {
        const NodeIndex i = t * kKeysPerThread + k;
        const BlockKey key = BlockKey::data(i);
        store.put(key, payload(i));
        if (store.get_copy(key) != payload(i)) ++wrong;
        if (store.get_batch({key}).front() != payload(i)) ++wrong;
        if (k % 5 == 0 && !store.erase(key)) ++wrong;
        if (k % 7 == 0) store.flush();
        if (store.size() > kThreads * kKeysPerThread) ++wrong;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(store.size(), 160u);  // 200 keys, every 5th erased
  for (NodeIndex i = 1; i <= kThreads * kKeysPerThread; ++i) {
    const bool erased = (i - 1) % kKeysPerThread % 5 == 4;
    EXPECT_EQ(store.get_copy(BlockKey::data(i)),
              erased ? std::nullopt : std::optional<Bytes>(payload(i)))
        << "d" << i;
  }
}

TEST_F(FileBlockStoreTest, WorksAsCodecBackend) {
  // The whole encode→damage→repair cycle against real files.
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 64;
  FileBlockStore store(root_);
  const std::vector<Bytes> truth = test::random_blocks(30, kBlockSize, 5);
  test::encode_into(params, kBlockSize, truth, store);
  store.erase(BlockKey::data(10));
  store.erase(BlockKey::data(11));
  store.flush();

  pipeline::ThreadPool pool(1);
  pipeline::ParallelRepairer repairer(params, 30, kBlockSize, &store, &pool);
  const RepairReport report = repairer.repair_all();
  EXPECT_EQ(report.nodes_unrecovered, 0u);
  EXPECT_EQ(*store.get_copy(BlockKey::data(10)), truth[9]);
  EXPECT_EQ(*store.get_copy(BlockKey::data(11)), truth[10]);
}

TEST_F(FileBlockStoreTest, IntegrityScanLeavesThePayloadCacheAlone) {
  // A session's integrity scan reads through get_batch, and no read adds
  // to the store's memory: once every block file is gone, no read can
  // still serve a block from memory. The scan runs on a second store
  // opened on the root, whose ring of recent writes starts empty.
  constexpr std::size_t kBlockSize = 64;
  for (const char* spec : {"AE(3,2,5)", "RS(4,2)"}) {
    SCOPED_TRACE(spec);
    const fs::path root = root_ / (spec[0] == 'A' ? "ae" : "rs");
    FileBlockStore writer(root, 4);
    const auto session =
        Engine::serial()->open_session(make_codec(spec), &writer, kBlockSize);
    session->append(test::join(test::random_blocks(150, kBlockSize, 3)));
    writer.flush();
    FileBlockStore store(root, 4);
    const auto scan = Engine::serial()->open_session(
        make_codec(spec), &store, kBlockSize, session->size());
    EXPECT_EQ(scan->verify_integrity().inconsistent_parities, 0u);

    std::vector<BlockKey> keys;
    scan->for_each_expected_key([&](const BlockKey& key) {
      keys.push_back(key);
      ASSERT_TRUE(fs::remove(store.path_of(key))) << to_string(key);
    });
    ASSERT_FALSE(keys.empty());
    for (const std::optional<Bytes>& payload : store.get_batch(keys))
      EXPECT_FALSE(payload.has_value());
  }
}

TEST_F(FileBlockStoreTest, ResumedEncoderContinuesTheLattice) {
  const CodeParams params(2, 2, 2);
  constexpr std::size_t kBlockSize = 32;
  Rng rng(9);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(rng.random_block(kBlockSize));

  // One continuous encoder vs a restart in the middle.
  pipeline::ConcurrentBlockStore continuous;
  test::encode_into(params, kBlockSize, blocks, continuous);

  FileBlockStore durable(root_);
  pipeline::ThreadPool pool(1);
  {
    pipeline::ParallelEncoder enc_b(params, kBlockSize, &durable, &pool);
    enc_b.append_all(test::join({blocks.begin(), blocks.begin() + 12}));
  }
  {
    pipeline::ParallelEncoder enc_c(params, kBlockSize, &durable, &pool,
                                    /*resume_count=*/12);
    enc_c.append_all(test::join({blocks.begin() + 12, blocks.end()}));
    EXPECT_EQ(enc_c.size(), 20u);
  }
  test::expect_encoding_of(params, kBlockSize, blocks, durable);
  // Identical parities everywhere.
  const Lattice lat(params, 20, Lattice::Boundary::kOpen);
  for (NodeIndex i = 1; i <= 20; ++i) {
    for (StrandClass cls : params.classes()) {
      const BlockKey key = BlockKey::parity(lat.output_edge(i, cls));
      const auto a = continuous.get_copy(key);
      ASSERT_TRUE(a.has_value()) << to_string(key);
      ASSERT_EQ(durable.get_copy(key), a) << to_string(key);
    }
  }
}

}  // namespace
}  // namespace aec
