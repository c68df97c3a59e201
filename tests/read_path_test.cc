// Pipelined read path conformance: the windowed stream (batched prefetch
// + repair-on-read lookahead) must be byte-identical to the per-block
// reference — a window-1 stream — on every codec family, under every
// damage shape, including agreeing on which blocks are irrecoverable.
// Plus window boundary cases, BlockStream's prefetch unit behaviour, the
// streaming FileReader, the archive name index, the read.prefetch.*
// instrumentation, and a concurrent reader-vs-scrub exercise (all suites
// here match the CI TSan filter `ReadPath*`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ae_test_util.h"
#include "api/engine.h"
#include "cluster/placement.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "obs/metrics.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/thread_pool.h"
#include "tools/archive.h"

namespace aec {
namespace {

namespace fs = std::filesystem;
using tools::Archive;
using tools::FileReader;
using tools::FileWriter;

constexpr std::size_t kBlockSize = 64;

/// The directories test_dir made for the running test.
std::vector<fs::path>& test_dirs() {
  static std::vector<fs::path> dirs;
  return dirs;
}

fs::path test_dir(const std::string& name) {
  // A parameterized test is named "Test/Param": one directory, not two.
  std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(test.begin(), test.end(), '/', '_');
  const fs::path base =
      fs::temp_directory_path() / ("aec_read_path_" + test + "_" + name);
  fs::remove_all(base);
  fs::create_directories(base);
  test_dirs().push_back(base);
  return base;
}

/// Base of every fixture here: removes the test's directories when it
/// ends, after the stores and archives its body opened on them are gone.
template <class Base>
class RemovesTestDirs : public Base {
 protected:
  void TearDown() override {
    for (const fs::path& dir : test_dirs()) fs::remove_all(dir);
    test_dirs().clear();
  }
};

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name)->value();
}

/// Which stored keys a damage shape destroys.
using LosePredicate = std::function<bool(const BlockKey&)>;

/// A whole failure domain goes dark: every key strand placement (paper
/// Fig 13) puts on node 0 of 4 — a quarter of the data blocks and of the
/// parities. On AE(3,2,5) each lost data block is one XOR from two live
/// parities.
bool on_node0(const BlockKey& key) {
  return cluster::place_block(key, 4, cluster::PlacementPolicy::kStrand,
                              0) == 0;
}

/// Every block of a stream over data blocks [first, first + count).
std::vector<Block> read_run(CodecSession& session, NodeIndex first,
                            std::uint64_t count, std::size_t window = 0) {
  const std::unique_ptr<BlockStream> stream =
      session.open_stream(first, count, window);
  std::vector<Block> out;
  while (!stream->exhausted()) out.push_back(stream->next());
  return out;
}

/// Erases every key of `store` that `lose` selects.
void inflict(BlockStore& store, const LosePredicate& lose) {
  std::vector<BlockKey> doomed;
  store.for_each_key([&](const BlockKey& key) {
    if (lose(key)) doomed.push_back(key);
  });
  for (const BlockKey& key : doomed) EXPECT_TRUE(store.erase(key));
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

class ReadPathConformanceTest
    : public RemovesTestDirs<::testing::TestWithParam<ReadSpecCase>> {
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
  /// windowed stream and the per-block reference each start from
  /// pristine (undamaged-by-repair) state.
  std::pair<std::unique_ptr<Instance>, std::unique_ptr<Instance>> build_pair(
      const LosePredicate& lose) {
    const ReadSpecCase& p = GetParam();
    Rng rng(42);
    blocks_.clear();
    for (std::uint64_t i = 0; i < p.blocks; ++i)
      blocks_.push_back(rng.random_block(kBlockSize));

    auto make = [&](const char* tag) {
      auto inst = std::make_unique<Instance>(test_dir(tag), p.spec);
      inst->session->append(test::join(blocks_));
      inflict(inst->store, lose);
      return inst;
    };
    return {make("windowed"), make("perblock")};
  }

  void expect_both_paths_agree(const LosePredicate& lose,
                               const std::vector<NodeIndex>& irrecoverable) {
    const ReadSpecCase& p = GetParam();
    auto [windowed, perblock] = build_pair(lose);

    const auto via_window = read_run(*windowed->session, 1, p.blocks, 8);
    // The per-block reference: a window-1 stream repairs each lost block
    // on its own (ParallelRepairer::read_node(i, 1) for AE).
    const auto via_blocks = read_run(*perblock->session, 1, p.blocks, 1);

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
        EXPECT_FALSE(via_window[i]) << "block " << node;
      } else {
        ASSERT_TRUE(via_window[i]) << "block " << node;
        EXPECT_EQ(via_window[i], blocks_[i]) << "block " << node;
      }
    }

    // Repairs along the windowed read are persisted, like the per-block
    // reference's.
    for (NodeIndex i = 1; i <= static_cast<NodeIndex>(p.blocks); ++i) {
      if (!lose(BlockKey::data(i)) ||
          std::find(irrecoverable.begin(), irrecoverable.end(), i) !=
              irrecoverable.end())
        continue;
      EXPECT_TRUE(windowed->store.contains(BlockKey::data(i)))
          << "repair of block " << i << " not persisted";
    }
  }

  /// Damage that loses exactly the listed data blocks.
  static LosePredicate data_blocks(std::vector<NodeIndex> lost) {
    return [lost = std::move(lost)](const BlockKey& key) {
      return key.is_data() &&
             std::find(lost.begin(), lost.end(), key.index) != lost.end();
    };
  }

  std::vector<Bytes> blocks_;
};

TEST_P(ReadPathConformanceTest, Healthy) {
  expect_both_paths_agree(data_blocks({}), {});
}

TEST_P(ReadPathConformanceTest, ScatteredDamage) {
  expect_both_paths_agree(data_blocks(GetParam().scattered), {});
}

TEST_P(ReadPathConformanceTest, DamagedNeighbourhood) {
  expect_both_paths_agree(data_blocks(GetParam().neighbourhood), {});
}

TEST_P(ReadPathConformanceTest, IrrecoverableMidFile) {
  // The victim loses its block and every parity in the store: both paths
  // must report exactly that block as lost and still serve the rest.
  const NodeIndex victim = GetParam().victim;
  expect_both_paths_agree(
      [victim](const BlockKey& key) {
        return !key.is_data() || key.index == victim;
      },
      {victim});
}

TEST_P(ReadPathConformanceTest, NodeLoss) {
  // Window repair's home shape: a strand-placed failure domain. On
  // AE(3,2,5)/AE(2,2,5) every lost data block is one XOR away; on
  // AE(1,-,-) the lone strand loses each one's input parity too (d1,
  // fed by the virtual bootstrap block, aside), so those fall through
  // to the radius plan.
  if (std::string(GetParam().spec).rfind("AE", 0) != 0)
    GTEST_SKIP() << "strand placement targets the AE lattice";
  expect_both_paths_agree(on_node0, {});
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

class ReadPathWindowTest : public RemovesTestDirs<::testing::Test> {};

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
  session->append(test::join(blocks));
  ASSERT_TRUE(store.erase(BlockKey::data(11)));

  for (const std::size_t window : {std::size_t{1}, std::size_t{1000}}) {
    const auto out = read_run(*session, 1, count, window);
    ASSERT_EQ(out.size(), count) << "window " << window;
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(out[i]) << "window " << window;
      EXPECT_EQ(out[i], blocks[i]) << "window " << window;
    }
  }

  // Interior range, zero count, and the engine-default window.
  EXPECT_TRUE(session->open_stream(5, 0)->exhausted());
  const auto mid = read_run(*session, 7, 5);
  ASSERT_EQ(mid.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(mid[i], blocks[6 + i]);
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

class ReadPathArchiveTest : public RemovesTestDirs<::testing::Test> {};

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
  ASSERT_TRUE(archive->find_file("b").has_value());
  EXPECT_EQ(archive->find_file("b")->bytes, b.size());
  EXPECT_FALSE(archive->find_file("missing").has_value());
  EXPECT_THROW(archive->open_reader("missing"), CheckError);
  EXPECT_FALSE(archive->try_open_reader("missing").has_value());
  EXPECT_FALSE(archive->read_file("missing").has_value());
  EXPECT_EQ(archive->read_file("a"), a);
  EXPECT_EQ(archive->read_file("b"), b);
  EXPECT_EQ(archive->read_file("c"), c);
}

// --- BlockStream unit behaviour ---------------------------------------------

class ReadPathBlockStreamTest : public RemovesTestDirs<::testing::Test> {
 protected:
  /// Stores data blocks 1..count in `store` and returns their payloads.
  static std::vector<Bytes> seed(BlockStore& store, std::size_t count) {
    Rng rng(12);
    std::vector<Bytes> blocks;
    for (std::size_t i = 1; i <= count; ++i) {
      blocks.push_back(rng.random_block(kBlockSize));
      store.put(BlockKey::data(static_cast<NodeIndex>(i)), blocks.back());
    }
    return blocks;
  }

  /// A repair fallback that repairs nothing.
  static Block no_repair(NodeIndex) { return Block(); }

  /// Records every get_batch() made through it: its first key's index
  /// and its size, each key it fetched and the thread that fetched it.
  class CountingStore final : public BlockStore {
   public:
    explicit CountingStore(BlockStore& inner) : inner_(inner) {}
    void put(const BlockKey& key, Bytes value) override {
      inner_.put(key, std::move(value));
    }
    std::optional<Bytes> get_copy(const BlockKey& key) const override {
      return inner_.get_copy(key);
    }
    bool contains(const BlockKey& key) const override {
      return inner_.contains(key);
    }
    bool erase(const BlockKey& key) override { return inner_.erase(key); }
    std::uint64_t size() const override { return inner_.size(); }
    bool thread_safe() const noexcept override { return true; }
    std::vector<std::optional<Bytes>> get_batch(
        const std::vector<BlockKey>& keys) const override {
      {
        std::lock_guard lock(mu_);
        batches_.emplace_back(keys.empty() ? 0 : keys.front().index,
                              keys.size());
        for (const BlockKey& key : keys) {
          ++fetches_[key];
          fetchers_.insert(std::this_thread::get_id());
        }
      }
      return inner_.get_batch(keys);
    }
    /// (first key's index, size) of every batch, sorted by first key:
    /// a stream keeps two batches in flight, so they may reach the store
    /// in either order.
    std::vector<std::pair<NodeIndex, std::size_t>> batches() const {
      std::lock_guard lock(mu_);
      std::vector<std::pair<NodeIndex, std::size_t>> sorted = batches_;
      std::sort(sorted.begin(), sorted.end());
      return sorted;
    }
    /// How often each key was fetched.
    std::unordered_map<BlockKey, int, BlockKeyHash> fetches() const {
      std::lock_guard lock(mu_);
      return fetches_;
    }
    std::set<std::thread::id> fetchers() const {
      std::lock_guard lock(mu_);
      return fetchers_;
    }
    void reset() {
      std::lock_guard lock(mu_);
      batches_.clear();
      fetches_.clear();
      fetchers_.clear();
    }

   private:
    BlockStore& inner_;
    mutable std::mutex mu_;
    mutable std::vector<std::pair<NodeIndex, std::size_t>> batches_;
    mutable std::unordered_map<BlockKey, int, BlockKeyHash> fetches_;
    mutable std::set<std::thread::id> fetchers_;
  };

  pipeline::ThreadPool pool_{1};
};

TEST_F(ReadPathBlockStreamTest, DeliversInOrderAndRecoversOnlyMissingBlocks) {
  pipeline::ConcurrentBlockStore store;
  const std::vector<Bytes> blocks = seed(store, 20);
  store.erase(BlockKey::data(7));
  store.erase(BlockKey::data(8));

  // d7 comes back from the fallback, d8 stays irrecoverable.
  std::vector<NodeIndex> recovered;
  BlockStream stream(store, pool_, 1, 20, 6, [&](NodeIndex i) {
    recovered.push_back(i);
    return i == 7 ? Block::copy_of(blocks[6]) : Block();
  });
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto payload = stream.next();
    if (i == 7) {
      EXPECT_FALSE(payload) << "block " << i + 1;
    } else {
      ASSERT_TRUE(payload) << "block " << i + 1;
      EXPECT_EQ(payload, blocks[i]);
    }
  }
  EXPECT_EQ(recovered, (std::vector<NodeIndex>{7, 8}));
  EXPECT_TRUE(stream.exhausted());
  EXPECT_EQ(stream.consumed(), 20u);
}

TEST_F(ReadPathBlockStreamTest, AbandonedStreamCountsUnconsumedAsWasted) {
  pipeline::ConcurrentBlockStore store;
  seed(store, 20);

  const std::uint64_t issued0 = counter_value("read.prefetch.issued");
  const std::uint64_t wasted0 = counter_value("read.prefetch.wasted");
  {
    BlockStream stream(store, pool_, 1, 20, 8, no_repair);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(stream.next());
  }
  const std::uint64_t issued = counter_value("read.prefetch.issued") - issued0;
  const std::uint64_t wasted = counter_value("read.prefetch.wasted") - wasted0;
  EXPECT_GE(issued, 5u);
  EXPECT_EQ(wasted, issued - 5u);
}

TEST_F(ReadPathBlockStreamTest, RefillIssuesWholeBatchesOnly) {
  // Records every get_batch() the stream makes. Topping the window up
  // block by block would issue 16 keys, 16 keys, then one-key batches as
  // each consumed block frees one slot.
  pipeline::ConcurrentBlockStore inner;
  const std::vector<Bytes> blocks = seed(inner, 72);
  CountingStore store(inner);
  {
    // A 32-block window holds two whole batches; the 72-block run ends
    // in a shorter tail batch.
    BlockStream stream(store, pool_, 1, 72, 32, no_repair);
    for (std::size_t i = 0; i < blocks.size(); ++i)
      EXPECT_EQ(stream.next(), blocks[i]) << "block " << i + 1;
    EXPECT_TRUE(stream.exhausted());
  }
  EXPECT_EQ(store.batches(),
            (std::vector<std::pair<NodeIndex, std::size_t>>{
                {1, 16}, {17, 16}, {33, 16}, {49, 16}, {65, 8}}));
}

TEST_F(ReadPathBlockStreamTest, StoreExceptionSurfacesAtNextNotAtThePool) {
  // A throwing store must fail the reader that asked, not an unrelated
  // operation (a scrub's wave) waiting on the same pool.
  class ThrowingStore final : public BlockStore {
   public:
    void put(const BlockKey&, Bytes) override {}
    std::optional<Bytes> get_copy(const BlockKey&) const override {
      return std::nullopt;
    }
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
  pipeline::ThreadPool::Group other;
  std::atomic<int> ran{0};
  {
    BlockStream stream(store, engine->pool(), 1, 8, 64, no_repair);
    engine->pool().submit(other, [&ran] { ran.fetch_add(1); });
    EXPECT_THROW(stream.next(), std::runtime_error);
  }
  EXPECT_NO_THROW(engine->pool().wait(other));
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(ReadPathBlockStreamTest,
       ReaderFetchesItsOwnBatchesWhileTheWorkerIsParked) {
  // A one-worker engine whose worker is held by another operation's
  // task: the stream's batches sit queued, and the reader fetches every
  // one itself on its own thread instead of sleeping on the pool. A
  // reader that only waited would never finish, so the read runs under a
  // timeout.
  constexpr std::size_t kBlocks = 100;
  pipeline::ConcurrentBlockStore inner;
  CountingStore store(inner);
  auto engine = Engine::with_threads(1);
  auto session =
      engine->open_session(make_codec("AE(3,2,5)"), &store, kBlockSize);
  Rng rng(16);
  std::vector<Bytes> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i)
    blocks.push_back(rng.random_block(kBlockSize));
  session->append(test::join(blocks));
  store.reset();

  std::latch parked(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pipeline::ThreadPool::Group other;
  engine->pool().submit(other, [&parked, released] {
    parked.count_down();
    released.wait();
  });
  parked.wait();

  std::thread::id consumer;
  auto reading = std::async(std::launch::async, [&] {
    consumer = std::this_thread::get_id();
    return read_run(*session, 1, kBlocks);
  });
  const bool finished =
      reading.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();  // lets a reader stuck on the pool finish, too
  engine->pool().wait(other);
  ASSERT_TRUE(finished) << "the reader slept on a batch queued behind a "
                           "parked worker";

  const std::vector<Block> out = reading.get();
  ASSERT_EQ(out.size(), kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i)
    EXPECT_EQ(out[i], blocks[i]) << "block " << i + 1;
  EXPECT_EQ(store.fetchers(), std::set<std::thread::id>{consumer});
  const auto fetches = store.fetches();
  EXPECT_EQ(fetches.size(), kBlocks);
  for (const auto& [key, times] : fetches)
    EXPECT_EQ(times, 1) << to_string(key);
}

TEST_F(ReadPathBlockStreamTest, NoBatchIsFetchedTwiceWhileWorkersRace) {
  // Two workers kept half busy by another operation's tasks: some
  // batches are fetched by a worker, some by the reader, and each
  // exactly once.
  constexpr std::size_t kBlocks = 400;
  pipeline::ConcurrentBlockStore inner;
  CountingStore store(inner);
  const std::vector<Bytes> blocks = seed(inner, kBlocks);
  auto engine = Engine::with_threads(2);
  std::atomic<bool> stop{false};
  pipeline::ThreadPool::Group busy;
  std::thread noise([&] {
    while (!stop.load()) {
      engine->pool().submit(busy, [] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      });
      engine->pool().wait(busy);
    }
  });
  for (int round = 0; round < 5; ++round) {
    store.reset();
    BlockStream stream(store, engine->pool(), 1, kBlocks, 64, no_repair);
    for (std::size_t i = 0; i < kBlocks; ++i)  // EXPECT: `noise` must join
      EXPECT_EQ(stream.next(), blocks[i]) << "block " << i + 1;
    const auto fetches = store.fetches();
    EXPECT_EQ(fetches.size(), kBlocks);
    for (const auto& [key, times] : fetches)
      EXPECT_EQ(times, 1) << to_string(key);
  }
  stop.store(true);
  noise.join();
}

// --- file-long read stream -------------------------------------------------

class ReadPathStreamTest : public RemovesTestDirs<::testing::Test> {};

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
  // stream kept refilling whole batches past its end. A fresh stream per
  // chunk would have issued exactly the 64 blocks delivered.
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

TEST_F(ReadPathStreamTest, LostBlocksRepairOneWavePerWindow) {
  // Node 0 of 4 lost: d1, d5, d9, … — 64 of 256 blocks, each one XOR
  // away. The stream repairs every loss of a 64-block window in one
  // wave; one wave per lost block would be 64 waves.
  Rng rng(19);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 256; ++i) blocks.push_back(rng.random_block(kBlockSize));
  auto engine = Engine::with_threads(2);
  struct Copy {
    pipeline::ConcurrentBlockStore store;
    std::unique_ptr<CodecSession> session;
  };
  const auto damaged_copy = [&] {
    auto copy = std::make_unique<Copy>();
    copy->session = engine->open_session(make_codec("AE(3,2,5)"),
                                         &copy->store, kBlockSize);
    copy->session->append(test::join(blocks));
    inflict(copy->store, on_node0);
    return copy;
  };

  {
    const auto copy = damaged_copy();
    const std::uint64_t waves0 = counter_value("repair.waves");
    const std::uint64_t steps0 = counter_value("repair.steps");
    const auto out = read_run(*copy->session, 1, 256, 64);
    ASSERT_EQ(out.size(), 256u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], blocks[i]) << "block " << i + 1;
    EXPECT_EQ(counter_value("repair.waves") - waves0, 4u);
    EXPECT_EQ(counter_value("repair.steps") - steps0, 64u);
  }
  {
    // A run of 100 blocks: windows at d1 and d65, the second cut at the
    // run's end, so d101 (node 0, just past the run) stays lost.
    const auto copy = damaged_copy();
    const std::uint64_t waves0 = counter_value("repair.waves");
    const std::uint64_t steps0 = counter_value("repair.steps");
    const auto out = read_run(*copy->session, 1, 100, 64);
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], blocks[i]) << "block " << i + 1;
    EXPECT_EQ(counter_value("repair.waves") - waves0, 2u);
    EXPECT_EQ(counter_value("repair.steps") - steps0, 25u);
    EXPECT_FALSE(copy->store.contains(BlockKey::data(101)));
  }
}

// --- views of the decoded blocks -------------------------------------------

class ReadPathViewsTest : public RemovesTestDirs<::testing::Test> {
 protected:
  static constexpr std::size_t kViewBlock = 4096;

  /// Every byte read_views hands out, `max_bytes` per call, checking
  /// each call's size and view count; nullopt once a call fails.
  static std::optional<Bytes> read_all_views(FileReader& reader,
                                             std::size_t max_bytes) {
    Bytes out;
    for (;;) {
      const std::uint64_t left =
          reader.size_bytes() - reader.bytes_delivered();
      const auto views = reader.read_views(max_bytes);
      if (!views) return std::nullopt;
      std::size_t n = 0;
      for (const BytesView view : *views) {
        EXPECT_FALSE(view.empty());
        out.insert(out.end(), view.begin(), view.end());
        n += view.size();
      }
      EXPECT_EQ(n, std::min<std::uint64_t>(max_bytes, left));
      EXPECT_LE(views->size(), max_bytes / kViewBlock + 2);
      if (views->empty()) return out;  // EOF
    }
  }

  /// The same walk through read_into, `max_bytes` per call.
  static std::optional<Bytes> read_all_into(FileReader& reader,
                                            std::size_t max_bytes) {
    Bytes out;
    for (;;) {
      const std::uint64_t left =
          reader.size_bytes() - reader.bytes_delivered();
      const auto n = reader.read_into(out, max_bytes);
      if (!n) return std::nullopt;
      EXPECT_EQ(*n, std::min<std::uint64_t>(max_bytes, left));
      if (*n == 0) return out;  // EOF
    }
  }
};

TEST_F(ReadPathViewsTest, ViewsAndReadIntoMatchTheFileAtEverySize) {
  // Sizes around one block and one well past the 256 KiB window; reads
  // below the block size (as aecd's get_chunk_bytes may be), of one
  // block and of one window.
  auto archive = Archive::create(test_dir("a"), "AE(3,2,5)", kViewBlock,
                                 Engine::with_threads(2), "mem");
  Rng rng(30);
  const std::vector<std::size_t> file_sizes = {0,    1,    4095,
                                               4096, 4097, (1u << 20) + 3};
  std::vector<Bytes> contents;
  for (const std::size_t size : file_sizes) {
    contents.push_back(rng.random_block(size));
    archive->add_file(std::to_string(size), contents.back());
  }
  for (std::size_t k = 0; k < file_sizes.size(); ++k) {
    const std::string name = std::to_string(file_sizes[k]);
    for (const std::size_t max_bytes :
         {std::size_t{1}, std::size_t{100}, kViewBlock,
          std::size_t{256} << 10}) {
      SCOPED_TRACE(::testing::Message() << "file of " << name
                                        << " bytes, reads of " << max_bytes);
      std::optional<Bytes> viewed;
      {
        FileReader reader = archive->open_reader(name);
        viewed = read_all_views(reader, max_bytes);
        EXPECT_FALSE(reader.failed());
      }
      ASSERT_TRUE(viewed.has_value());
      EXPECT_EQ(*viewed, contents[k]);
      FileReader reader = archive->open_reader(name);
      const std::optional<Bytes> copied = read_all_into(reader, max_bytes);
      ASSERT_TRUE(copied.has_value());
      EXPECT_EQ(*copied, *viewed);
      EXPECT_FALSE(reader.failed());
    }
  }
}

TEST_F(ReadPathViewsTest, ViewsRepairErasedBlocksOnRead) {
  // Each read, by views and by copy, below the block size and by whole
  // windows, starts from the same three lost data blocks and repairs
  // them on the way.
  Rng rng(31);
  const Bytes content = rng.random_block(kViewBlock * 100 + 7);
  const fs::path root = test_dir("a");
  Archive::create(root, "AE(3,2,5)", kViewBlock)->add_file("doc", content);
  for (const std::size_t max_bytes :
       {std::size_t{1000}, std::size_t{256} << 10}) {
    for (const bool views : {true, false}) {
      SCOPED_TRACE(::testing::Message() << (views ? "views" : "read_into")
                                        << ", reads of " << max_bytes);
      {
        FileBlockStore store(root);
        for (const NodeIndex i : {NodeIndex{3}, NodeIndex{4}, NodeIndex{50}})
          ASSERT_TRUE(store.erase(BlockKey::data(i)));
      }
      auto archive = Archive::open(root, Engine::with_threads(2));
      FileReader reader = archive->open_reader("doc");
      const std::optional<Bytes> got = views
                                           ? read_all_views(reader, max_bytes)
                                           : read_all_into(reader, max_bytes);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, content);
      EXPECT_EQ(archive->missing_blocks(), 0u);  // repairs persisted
    }
  }
}

TEST_F(ReadPathViewsTest, IrrecoverableBlockFailsTheViewsAndStaysFailed) {
  Rng rng(32);
  const Bytes content = rng.random_block(kViewBlock * 6);
  const fs::path root = test_dir("a");
  Archive::create(root, "AE(3,2,5)", kViewBlock)->add_file("doc", content);
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
  // Blocks 1–2 come back as views; block 3 is irrecoverable.
  const auto first = reader.read_views(kViewBlock * 2);
  ASSERT_TRUE(first.has_value());
  Bytes got;
  for (const BytesView view : *first)
    got.insert(got.end(), view.begin(), view.end());
  EXPECT_EQ(got, Bytes(content.begin(), content.begin() + kViewBlock * 2));
  EXPECT_FALSE(reader.read_views(kViewBlock).has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.read_views(kViewBlock).has_value());
  Bytes out;
  EXPECT_FALSE(reader.read_into(out, kViewBlock).has_value());
  EXPECT_FALSE(reader.next_chunk().has_value());
}

// --- metrics ----------------------------------------------------------------

class ReadPathMetricsTest : public RemovesTestDirs<::testing::Test> {};

TEST_F(ReadPathMetricsTest, WindowedReadCountsIssuedAndHitBlocks) {
  Rng rng(13);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 40; ++i) blocks.push_back(rng.random_block(kBlockSize));
  FileBlockStore store(test_dir("s"));
  auto engine = Engine::serial();
  auto session = engine->open_session(make_codec("AE(3,2,5)"), &store,
                                      kBlockSize);
  session->append(test::join(blocks));

  const obs::Histogram* waits = obs::MetricsRegistry::global().histogram(
      "read.prefetch.fetch_wait_us", obs::Histogram::latency_bounds_us());
  const std::uint64_t issued0 = counter_value("read.prefetch.issued");
  const std::uint64_t hit0 = counter_value("read.prefetch.hit");
  const std::uint64_t waits0 = waits->count();
  const auto out = read_run(*session, 1, 40, 8);
  ASSERT_EQ(out.size(), 40u);
  // Every block is issued, and the batches run on the engine pool: each
  // block either finds its batch complete (a hit) or waits for it (one
  // fetch_wait_us sample), never both.
  EXPECT_EQ(counter_value("read.prefetch.issued") - issued0, 40u);
  EXPECT_EQ(counter_value("read.prefetch.hit") - hit0 + waits->count() -
                waits0,
            40u);
}

// --- concurrent reader vs scrub ---------------------------------------------

class ReadPathConcurrencyTest : public RemovesTestDirs<::testing::Test> {};

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
    // the reopen seeds an accurate health census.
    FileBlockStore store(root, 4);
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
