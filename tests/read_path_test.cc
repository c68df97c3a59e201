// Pipelined read path conformance: the windowed read (BlockFetcher
// prefetch + repair-on-read lookahead) must be byte-identical to the
// per-block baseline on every codec family, under every damage shape —
// including agreeing on which blocks are irrecoverable. Plus window
// boundary cases, the streaming FileReader, the archive name index, the
// read.prefetch.* instrumentation, and a concurrent reader-vs-scrub
// exercise (all suites here match the CI TSan filter `ReadPath*`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "core/codec/sharded_file_block_store.h"
#include "obs/metrics.h"
#include "pipeline/block_fetcher.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;
using tools::Archive;
using tools::FileReader;
using tools::FileWriter;

constexpr std::size_t kBlockSize = 64;

fs::path test_dir(const std::string& name) {
  const fs::path base =
      fs::temp_directory_path() /
      ("aec_read_path_" +
       std::string(
           ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       "_" + name);
  fs::remove_all(base);
  fs::create_directories(base);
  return base;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name)->value();
}

// --- conformance across codecs × damage shapes ------------------------------

struct ReadSpecCase {
  const char* spec;
  std::uint64_t blocks;
  /// Recoverable scattered data-block losses.
  std::vector<NodeIndex> scattered;
  /// Recoverable run of consecutive data-block losses (the
  /// damaged-neighbourhood shape; sized to stay within the codec's
  /// tolerance, e.g. ≤ m per RS stripe).
  std::vector<NodeIndex> neighbourhood;
  /// Target of the irrecoverable case (loses its block AND every parity).
  NodeIndex victim;
};

std::string case_name(const ::testing::TestParamInfo<ReadSpecCase>& info) {
  std::string name = info.param.spec;
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

class ReadPathConformanceTest : public ::testing::TestWithParam<ReadSpecCase> {
 protected:
  struct Instance {
    FileBlockStore store;
    std::shared_ptr<Engine> engine;
    std::unique_ptr<CodecSession> session;

    explicit Instance(const fs::path& root, const char* spec)
        : store(root), engine(Engine::serial()) {
      session = engine->open_session(make_codec(spec), &store, kBlockSize);
    }
  };

  /// Two byte-identical session+store pairs with the same damage, so the
  /// windowed path and the per-block baseline each start from pristine
  /// (undamaged-by-repair) state.
  std::pair<std::unique_ptr<Instance>, std::unique_ptr<Instance>> build_pair(
      const std::vector<NodeIndex>& erase_data, bool erase_all_parities) {
    const ReadSpecCase& p = GetParam();
    Rng rng(42);
    blocks_.clear();
    for (std::uint64_t i = 0; i < p.blocks; ++i)
      blocks_.push_back(rng.random_block(kBlockSize));

    auto make = [&](const char* tag) {
      auto inst = std::make_unique<Instance>(test_dir(tag), p.spec);
      inst->session->append(blocks_);
      for (const NodeIndex i : erase_data)
        EXPECT_TRUE(inst->store.erase(BlockKey::data(i)));
      if (erase_all_parities) {
        std::vector<BlockKey> parities;
        inst->store.for_each_key([&](const BlockKey& key) {
          if (!key.is_data()) parities.push_back(key);
        });
        for (const BlockKey& key : parities) inst->store.erase(key);
      }
      return inst;
    };
    return {make("windowed"), make("perblock")};
  }

  /// The per-block baseline: a plain read_block loop.
  static std::vector<std::optional<Bytes>> per_block_read(
      CodecSession& session, std::uint64_t count) {
    std::vector<std::optional<Bytes>> out;
    for (std::uint64_t i = 1; i <= count; ++i)
      out.push_back(session.read_block(static_cast<NodeIndex>(i)));
    return out;
  }

  void expect_both_paths_agree(const std::vector<NodeIndex>& erase_data,
                               bool erase_all_parities,
                               const std::vector<NodeIndex>& irrecoverable) {
    const ReadSpecCase& p = GetParam();
    auto [windowed, perblock] = build_pair(erase_data, erase_all_parities);

    const auto via_window = windowed->session->read_blocks(1, p.blocks, 8);
    const auto via_blocks = per_block_read(*perblock->session, p.blocks);

    ASSERT_EQ(via_window.size(), p.blocks);
    ASSERT_EQ(via_blocks.size(), p.blocks);
    for (std::uint64_t i = 0; i < p.blocks; ++i) {
      const NodeIndex node = static_cast<NodeIndex>(i + 1);
      const bool lost = std::find(irrecoverable.begin(), irrecoverable.end(),
                                  node) != irrecoverable.end();
      // Windowed and per-block agree with each other…
      EXPECT_EQ(via_window[i], via_blocks[i]) << "block " << node;
      // …and with ground truth (nullopt exactly on the lost set).
      if (lost) {
        EXPECT_FALSE(via_window[i].has_value()) << "block " << node;
      } else {
        ASSERT_TRUE(via_window[i].has_value()) << "block " << node;
        EXPECT_EQ(*via_window[i], blocks_[i]) << "block " << node;
      }
    }

    // Repairs along the windowed read are persisted, like read_block's.
    for (const NodeIndex i : erase_data) {
      if (std::find(irrecoverable.begin(), irrecoverable.end(), i) !=
          irrecoverable.end())
        continue;
      EXPECT_TRUE(windowed->store.contains(BlockKey::data(i)))
          << "repair of block " << i << " not persisted";
    }
  }

  std::vector<Bytes> blocks_;
};

TEST_P(ReadPathConformanceTest, Healthy) {
  expect_both_paths_agree({}, false, {});
}

TEST_P(ReadPathConformanceTest, ScatteredDamage) {
  expect_both_paths_agree(GetParam().scattered, false, {});
}

TEST_P(ReadPathConformanceTest, DamagedNeighbourhood) {
  expect_both_paths_agree(GetParam().neighbourhood, false, {});
}

TEST_P(ReadPathConformanceTest, IrrecoverableMidFile) {
  // The victim loses its block and every parity in the store: both paths
  // must report exactly that block as lost and still serve the rest.
  expect_both_paths_agree({GetParam().victim}, true, {GetParam().victim});
}

// The instantiation name keeps the full test names under the `ReadPath*`
// pattern the CI TSan job filters on.
INSTANTIATE_TEST_SUITE_P(
    ReadPath, ReadPathConformanceTest,
    ::testing::Values(
        ReadSpecCase{"AE(3,2,5)", 90, {3, 17, 41, 66, 88},
                     {40, 41, 42, 43, 44, 45, 46, 47}, 45},
        ReadSpecCase{"AE(2,2,5)", 80, {2, 19, 55, 71},
                     {30, 31, 32, 33, 34, 35, 36}, 33},
        ReadSpecCase{"AE(1,-,-)", 60, {5, 23, 47}, {20, 21, 22, 23, 24}, 22},
        // RS neighbourhoods sized to ≤ m losses within one stripe.
        ReadSpecCase{"RS(10,4)", 25, {1, 12, 23}, {11, 12, 13, 14}, 13},
        ReadSpecCase{"RS(4,2)", 18, {2, 7, 15}, {5, 6}, 6},
        ReadSpecCase{"REP(3)", 12, {3, 9}, {5, 6, 7}, 6}),
    case_name);

// --- window boundary cases --------------------------------------------------

class ReadPathWindowTest : public ::testing::Test {};

TEST_F(ReadPathWindowTest, WindowOfOneAndWindowBeyondFile) {
  Rng rng(7);
  const std::uint64_t count = 23;
  std::vector<Bytes> blocks;
  for (std::uint64_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(kBlockSize));

  FileBlockStore store(test_dir("s"));
  auto engine = Engine::serial();
  auto session = engine->open_session(make_codec("AE(3,2,5)"), &store,
                                      kBlockSize);
  session->append(blocks);
  ASSERT_TRUE(store.erase(BlockKey::data(11)));

  for (const std::size_t window : {std::size_t{1}, std::size_t{1000}}) {
    const auto out = session->read_blocks(1, count, window);
    ASSERT_EQ(out.size(), count) << "window " << window;
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(out[i].has_value()) << "window " << window;
      EXPECT_EQ(*out[i], blocks[i]) << "window " << window;
    }
  }

  // Interior range, zero count, and the engine-default window.
  EXPECT_TRUE(session->read_blocks(5, 0).empty());
  const auto mid = session->read_blocks(7, 5);
  ASSERT_EQ(mid.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(*mid[i], blocks[6 + i]);
}

TEST_F(ReadPathWindowTest, FileReaderChunksFollowWindowWithPartialTail) {
  Rng rng(8);
  const Bytes content = rng.random_block(kBlockSize * 10 + 13);  // 11 blocks
  auto archive = Archive::create(test_dir("a"), "AE(3,2,5)", kBlockSize);
  archive->add_file("doc", content);

  FileReader reader = archive->open_reader("doc", 4);
  Bytes streamed;
  std::vector<std::size_t> chunk_sizes;
  while (true) {
    const auto chunk = reader.next_chunk();
    ASSERT_TRUE(chunk.has_value());
    if (chunk->empty()) break;  // EOF
    chunk_sizes.push_back(chunk->size());
    streamed.insert(streamed.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(streamed, content);
  EXPECT_EQ(reader.bytes_delivered(), content.size());
  EXPECT_FALSE(reader.failed());
  // 11 blocks through a 4-block window: 4, 4, then the ragged tail.
  EXPECT_EQ(chunk_sizes,
            (std::vector<std::size_t>{kBlockSize * 4, kBlockSize * 4,
                                      kBlockSize * 2 + 13}));
  // EOF is sticky and harmless.
  const auto again = reader.next_chunk();
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->empty());
}

// --- archive streaming reader + name index ----------------------------------

class ReadPathArchiveTest : public ::testing::Test {};

TEST_F(ReadPathArchiveTest, FileReaderMatchesReadFileUnderDamage) {
  Rng rng(9);
  const Bytes content = rng.random_block(kBlockSize * 120 + 5);
  const fs::path root = test_dir("a");
  Archive::create(root, "AE(3,2,5)", kBlockSize)->add_file("doc", content);
  {
    FileBlockStore store(root);
    ASSERT_TRUE(store.erase(BlockKey::data(10)));
    ASSERT_TRUE(store.erase(BlockKey::data(11)));
    ASSERT_TRUE(store.erase(BlockKey::data(70)));
  }
  auto archive = Archive::open(root);
  FileReader reader = archive->open_reader("doc", 16);
  Bytes streamed;
  while (true) {
    const auto chunk = reader.next_chunk();
    ASSERT_TRUE(chunk.has_value());
    if (chunk->empty()) break;
    streamed.insert(streamed.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(streamed, content);
  EXPECT_EQ(archive->read_file("doc"), content);
  EXPECT_EQ(archive->missing_blocks(), 0u);  // repairs persisted
}

TEST_F(ReadPathArchiveTest, IrrecoverableFileFailsBothPaths) {
  Rng rng(10);
  const Bytes content = rng.random_block(kBlockSize * 6);
  const fs::path root = test_dir("a");
  Archive::create(root, "AE(3,2,5)", kBlockSize)->add_file("doc", content);
  {
    FileBlockStore store(root);
    ASSERT_TRUE(store.erase(BlockKey::data(3)));
    std::vector<BlockKey> parities;
    store.for_each_key([&](const BlockKey& key) {
      if (!key.is_data()) parities.push_back(key);
    });
    for (const BlockKey& key : parities) store.erase(key);
  }
  auto archive = Archive::open(root);
  EXPECT_FALSE(archive->read_file("doc").has_value());

  FileReader reader = archive->open_reader("doc", 4);
  std::optional<BytesView> chunk;
  do {
    chunk = reader.next_chunk();
  } while (chunk.has_value() && !chunk->empty());
  EXPECT_FALSE(chunk.has_value());
  EXPECT_TRUE(reader.failed());
  // The failure is sticky.
  EXPECT_FALSE(reader.next_chunk().has_value());
}

TEST_F(ReadPathArchiveTest, EmptyFileReadsEmptyAndFailsWhenItsBlockIsLost) {
  const fs::path root = test_dir("a");
  {
    auto archive = Archive::create(root, "AE(3,2,5)", kBlockSize);
    FileWriter writer = archive->begin_file("empty");
    writer.close();
    EXPECT_EQ(archive->read_file("empty"), Bytes{});
    FileReader reader = archive->open_reader("empty");
    const auto chunk = reader.next_chunk();
    ASSERT_TRUE(chunk.has_value());
    EXPECT_TRUE(chunk->empty());  // immediate EOF, not failure
    EXPECT_FALSE(reader.failed());
  }
  {
    // Destroy the empty file's one zero block and every parity: even an
    // empty file must distinguish "empty" from "irrecoverable".
    FileBlockStore store(root);
    std::vector<BlockKey> keys;
    store.for_each_key([&](const BlockKey& key) { keys.push_back(key); });
    for (const BlockKey& key : keys) store.erase(key);
  }
  auto archive = Archive::open(root);
  EXPECT_FALSE(archive->read_file("empty").has_value());
}

TEST_F(ReadPathArchiveTest, NameIndexFindsEveryFileAndRejectsDuplicates) {
  Rng rng(11);
  const fs::path root = test_dir("a");
  const Bytes a = rng.random_block(100);
  const Bytes b = rng.random_block(kBlockSize * 3);
  const Bytes c = rng.random_block(1);
  {
    auto archive = Archive::create(root, "RS(4,2)", kBlockSize);
    archive->add_file("a", a);
    archive->add_file("b", b);
    archive->add_file("c", c);
    EXPECT_THROW(archive->begin_file("b"), CheckError);  // duplicate name
  }
  auto archive = Archive::open(root);  // index rebuilt from the manifest
  ASSERT_NE(archive->find_file("b"), nullptr);
  EXPECT_EQ(archive->find_file("b")->bytes, b.size());
  EXPECT_EQ(archive->find_file("missing"), nullptr);
  EXPECT_THROW(archive->open_reader("missing"), CheckError);
  EXPECT_FALSE(archive->read_file("missing").has_value());
  EXPECT_EQ(archive->read_file("a"), a);
  EXPECT_EQ(archive->read_file("b"), b);
  EXPECT_EQ(archive->read_file("c"), c);
}

// --- BlockFetcher unit behaviour --------------------------------------------

class ReadPathFetcherTest : public ::testing::Test {
 protected:
  static std::vector<BlockKey> seed(InMemoryBlockStore& store,
                                    std::vector<Bytes>& blocks,
                                    std::size_t count) {
    Rng rng(12);
    std::vector<BlockKey> keys;
    for (std::size_t i = 1; i <= count; ++i) {
      keys.push_back(BlockKey::data(static_cast<NodeIndex>(i)));
      blocks.push_back(rng.random_block(kBlockSize));
      store.put(keys.back(), blocks.back());
    }
    return keys;
  }
};

TEST_F(ReadPathFetcherTest, DeliversInOrderWithMissingAsNullopt) {
  InMemoryBlockStore store;
  std::vector<Bytes> blocks;
  auto keys = seed(store, blocks, 20);
  store.erase(BlockKey::data(7));
  store.erase(BlockKey::data(8));

  pipeline::BlockFetcher::Options opt;
  opt.window = 6;
  opt.batch = 3;
  pipeline::BlockFetcher fetcher(store, nullptr, keys, opt);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto payload = fetcher.next();
    if (i == 6 || i == 7) {
      EXPECT_FALSE(payload.has_value()) << "key " << i + 1;
    } else {
      ASSERT_TRUE(payload.has_value()) << "key " << i + 1;
      EXPECT_EQ(*payload, blocks[i]);
    }
  }
  EXPECT_TRUE(fetcher.exhausted());
  EXPECT_EQ(fetcher.consumed(), 20u);
}

TEST_F(ReadPathFetcherTest, AbandonedFetcherCountsUnconsumedAsWasted) {
  InMemoryBlockStore store;
  std::vector<Bytes> blocks;
  auto keys = seed(store, blocks, 20);

  const std::uint64_t issued0 = counter_value("read.prefetch.issued");
  const std::uint64_t wasted0 = counter_value("read.prefetch.wasted");
  {
    pipeline::BlockFetcher::Options opt;
    opt.window = 8;
    opt.batch = 4;
    pipeline::BlockFetcher fetcher(store, nullptr, keys, opt);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(fetcher.next().has_value());
  }
  const std::uint64_t issued = counter_value("read.prefetch.issued") - issued0;
  const std::uint64_t wasted = counter_value("read.prefetch.wasted") - wasted0;
  EXPECT_GE(issued, 5u);
  EXPECT_EQ(wasted, issued - 5u);
}

TEST_F(ReadPathFetcherTest, RefillIssuesWholeBatchesOnly) {
  // Records every get_batch() the fetcher makes. Topping the window up
  // block by block would issue 4 keys, 4 keys, then one-key batches as
  // each consumed block frees one slot.
  class CountingStore final : public BlockStore {
   public:
    explicit CountingStore(InMemoryBlockStore& inner) : inner_(inner) {}
    void put(const BlockKey& key, Bytes value) override {
      inner_.put(key, std::move(value));
    }
    const Bytes* find(const BlockKey& key) const override {
      return inner_.find(key);
    }
    bool contains(const BlockKey& key) const override {
      return inner_.contains(key);
    }
    bool erase(const BlockKey& key) override { return inner_.erase(key); }
    std::uint64_t size() const override { return inner_.size(); }
    std::vector<std::optional<Bytes>> get_batch(
        const std::vector<BlockKey>& keys) const override {
      batch_sizes.push_back(keys.size());
      return inner_.get_batch(keys);
    }
    mutable std::vector<std::size_t> batch_sizes;

   private:
    InMemoryBlockStore& inner_;
  };

  InMemoryBlockStore inner;
  std::vector<Bytes> blocks;
  const auto keys = seed(inner, blocks, 40);
  pipeline::BlockFetcher::Options opt;
  opt.window = 8;
  opt.batch = 4;
  {
    CountingStore store(inner);
    pipeline::BlockFetcher fetcher(store, nullptr, keys, opt);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto payload = fetcher.next();
      ASSERT_TRUE(payload.has_value()) << "key " << i + 1;
      EXPECT_EQ(*payload, blocks[i]);
    }
    EXPECT_EQ(store.batch_sizes, std::vector<std::size_t>(10, 4));
  }
  {
    // A 10-key run with its keys computed on demand: two whole batches,
    // then the run's shorter tail.
    CountingStore store(inner);
    pipeline::BlockFetcher fetcher(
        store, nullptr, 10, [&](std::size_t i) { return keys[i]; }, opt);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(fetcher.next(), blocks[i]);
    EXPECT_TRUE(fetcher.exhausted());
    EXPECT_EQ(store.batch_sizes, (std::vector<std::size_t>{4, 4, 2}));
  }
}

TEST_F(ReadPathFetcherTest, StoreExceptionSurfacesAtNextNotAtThePool) {
  // A throwing store must fail the reader that asked, not poison the
  // shared pool's wait_idle() for an unrelated concurrent scrub.
  class ThrowingStore final : public BlockStore {
   public:
    void put(const BlockKey&, Bytes) override {}
    const Bytes* find(const BlockKey&) const override { return nullptr; }
    bool contains(const BlockKey&) const override { return true; }
    bool erase(const BlockKey&) override { return false; }
    std::uint64_t size() const override { return 0; }
    bool thread_safe() const noexcept override { return true; }
    std::vector<std::optional<Bytes>> get_batch(
        const std::vector<BlockKey>&) const override {
      throw std::runtime_error("store exploded");
    }
  };

  ThrowingStore store;
  auto engine = Engine::with_threads(2);
  std::vector<BlockKey> keys;
  for (NodeIndex i = 1; i <= 8; ++i) keys.push_back(BlockKey::data(i));
  {
    pipeline::BlockFetcher fetcher(store, &engine->pool(), keys);
    EXPECT_THROW(fetcher.next(), std::runtime_error);
  }
  EXPECT_NO_THROW(engine->pool().wait_idle());
}

// --- file-long read stream -------------------------------------------------

class ReadPathStreamTest : public ::testing::Test {};

TEST_F(ReadPathStreamTest, FileReaderLooksAheadAcrossChunks) {
  Rng rng(16);
  const Bytes content = rng.random_block(kBlockSize * 200 + 9);  // 201 blocks
  // A thread-safe store (the archive's locked mem backend) on a 2-thread
  // engine: prefetch batches run on the pool.
  auto archive = Archive::create(test_dir("a"), "AE(3,2,5)", kBlockSize,
                                 Engine::with_threads(2), "mem");
  archive->add_file("doc", content);

  const std::uint64_t issued0 = counter_value("read.prefetch.issued");
  FileReader reader = archive->open_reader("doc");  // 64 blocks, batch 16
  const auto first = reader.next_chunk();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->size(), kBlockSize * 64);
  // One stream for the whole file: while the first window drained, the
  // fetcher kept refilling whole batches past its end. A fresh fetcher
  // per chunk would have issued exactly the 64 blocks delivered.
  EXPECT_GT(counter_value("read.prefetch.issued") - issued0, 64u);

  Bytes streamed(first->begin(), first->end());
  while (true) {
    const auto chunk = reader.next_chunk();
    ASSERT_TRUE(chunk.has_value());
    if (chunk->empty()) break;
    streamed.insert(streamed.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(streamed, content);
  EXPECT_EQ(counter_value("read.prefetch.issued") - issued0, 201u);
}

TEST_F(ReadPathStreamTest, ReadIntoStraddlesBlocksAndTrimsTheTail) {
  Rng rng(17);
  const Bytes content = rng.random_block(kBlockSize * 10 + 13);  // 11 blocks
  auto archive = Archive::create(test_dir("a"), "AE(3,2,5)", kBlockSize);
  archive->add_file("doc", content);

  FileReader reader = archive->open_reader("doc", 4);
  Bytes out = {0xAB};  // appends: what the caller had stays in front
  std::vector<std::size_t> sizes;
  while (true) {
    const auto n = reader.read_into(out, 100);  // not a block multiple
    ASSERT_TRUE(n.has_value());
    if (*n == 0) break;  // EOF
    sizes.push_back(*n);
  }
  ASSERT_EQ(out.size(), content.size() + 1);
  EXPECT_EQ(out[0], 0xAB);
  EXPECT_TRUE(std::equal(content.begin(), content.end(), out.begin() + 1));
  // 653 bytes in 100-byte pieces; the zero padding never shows.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{100, 100, 100, 100, 100, 100,
                                             53}));
  EXPECT_EQ(reader.bytes_delivered(), content.size());
  EXPECT_EQ(reader.read_into(out, 100), std::optional<std::size_t>(0));
  EXPECT_EQ(out.size(), content.size() + 1);

  // An empty file is EOF at once, after its one block reads back.
  archive->begin_file("empty").close();
  FileReader empty = archive->open_reader("empty");
  Bytes none;
  EXPECT_EQ(empty.read_into(none, 100), std::optional<std::size_t>(0));
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(empty.failed());
}

TEST_F(ReadPathStreamTest, ReadIntoFailureIsSticky) {
  Rng rng(18);
  const Bytes content = rng.random_block(kBlockSize * 6);
  const fs::path root = test_dir("a");
  Archive::create(root, "AE(3,2,5)", kBlockSize)->add_file("doc", content);
  {
    FileBlockStore store(root);
    ASSERT_TRUE(store.erase(BlockKey::data(3)));
    std::vector<BlockKey> parities;
    store.for_each_key([&](const BlockKey& key) {
      if (!key.is_data()) parities.push_back(key);
    });
    for (const BlockKey& key : parities) store.erase(key);
  }
  auto archive = Archive::open(root);
  FileReader reader = archive->open_reader("doc");
  Bytes out;
  // Blocks 1–2 read back; block 3 is irrecoverable.
  EXPECT_EQ(reader.read_into(out, kBlockSize * 2),
            std::optional<std::size_t>(kBlockSize * 2));
  EXPECT_FALSE(reader.read_into(out, kBlockSize).has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.read_into(out, kBlockSize).has_value());
  EXPECT_FALSE(reader.next_chunk().has_value());
}

// --- metrics ----------------------------------------------------------------

class ReadPathMetricsTest : public ::testing::Test {};

TEST_F(ReadPathMetricsTest, WindowedReadCountsIssuedAndHitBlocks) {
  Rng rng(13);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 40; ++i) blocks.push_back(rng.random_block(kBlockSize));
  FileBlockStore store(test_dir("s"));
  auto engine = Engine::serial();
  auto session = engine->open_session(make_codec("AE(3,2,5)"), &store,
                                      kBlockSize);
  session->append(blocks);

  const std::uint64_t issued0 = counter_value("read.prefetch.issued");
  const std::uint64_t hit0 = counter_value("read.prefetch.hit");
  const auto out = session->read_blocks(1, 40, 8);
  ASSERT_EQ(out.size(), 40u);
  // Unwrapped FileBlockStore is not thread-safe, so the fetcher runs its
  // batches synchronously: every block is issued and every batch is
  // already complete when next() asks — all hits.
  EXPECT_EQ(counter_value("read.prefetch.issued") - issued0, 40u);
  EXPECT_EQ(counter_value("read.prefetch.hit") - hit0, 40u);
}

TEST_F(ReadPathMetricsTest, RepairOnReadPrefetchesPlanInputs) {
  Rng rng(14);
  const Bytes content = rng.random_block(kBlockSize * 50);
  const fs::path root = test_dir("a");
  Archive::create(root, "AE(3,2,5)", kBlockSize)->add_file("doc", content);
  {
    FileBlockStore store(root);
    ASSERT_TRUE(store.erase(BlockKey::data(20)));
    ASSERT_TRUE(store.erase(BlockKey::data(21)));
  }
  auto archive = Archive::open(root);
  const std::uint64_t inputs0 = counter_value("read.prefetch.plan_inputs");
  EXPECT_EQ(archive->read_file("doc"), content);
  EXPECT_GT(counter_value("read.prefetch.plan_inputs"), inputs0);
}

// --- concurrent reader vs scrub ---------------------------------------------

class ReadPathConcurrencyTest : public ::testing::Test {};

TEST_F(ReadPathConcurrencyTest, FileReaderStreamsWhileScrubRepairs) {
  Rng rng(15);
  const Bytes doc_a = rng.random_block(kBlockSize * 300 + 7);
  const Bytes doc_b = rng.random_block(kBlockSize * 200 + 3);
  const fs::path root = test_dir("a");
  NodeIndex b_first = 0;
  std::uint64_t b_blocks = 0;
  {
    auto archive = Archive::create(root, "AE(3,2,5)", kBlockSize,
                                   Engine::serial(), "sharded(4)");
    archive->add_file("a", doc_a);
    const tools::FileEntry& b = archive->add_file("b", doc_b);
    b_first = b.first_block;
    b_blocks = b.block_count(kBlockSize);
  }
  {
    // Damage confined to file b, injected while the archive is closed so
    // the reopen seeds an accurate availability index.
    ShardedFileBlockStore store(root, 4);
    for (std::uint64_t i = 0; i < b_blocks; i += 17)
      ASSERT_TRUE(
          store.erase(BlockKey::data(b_first + static_cast<NodeIndex>(i))));
  }

  auto archive = Archive::open(root, Engine::with_threads(2));
  Bytes streamed;
  bool reader_ok = true;
  std::thread reader([&] {
    FileReader reader = archive->open_reader("a", 16);
    while (true) {
      const auto chunk = reader.next_chunk();
      if (!chunk.has_value()) {
        reader_ok = false;
        return;
      }
      if (chunk->empty()) return;
      streamed.insert(streamed.end(), chunk->begin(), chunk->end());
    }
  });
  std::thread scrubber([&] { archive->scrub(); });
  reader.join();
  scrubber.join();

  EXPECT_TRUE(reader_ok);
  EXPECT_EQ(streamed, doc_a);
  EXPECT_EQ(archive->missing_blocks(), 0u);
  EXPECT_EQ(archive->read_file("b"), doc_b);
}

}  // namespace
}  // namespace aec
