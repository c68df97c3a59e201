// One writer, many readers, exclusive operations (archive.h's concurrency
// contract): degraded reads that repair beside an append must read back
// byte-identical and leave a consistent archive — on AE, where the
// writer only adds keys past every reader's lattice, and on RS, where the
// append re-encodes the very tail stripe a reader is repairing — and
// scrub, reindex, damage injection and the node operations must wait for
// every open reader. A test-registered store (hooked_store.h) gives the
// tests a handle on the live archive's blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hooked_store.h"
#include "tools/archive.h"

namespace aec::tools {
namespace {

namespace fs = std::filesystem;

class ArchiveConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aec_concurrency_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

/// Rounds of: damage chosen blocks of the last committed file, then read
/// that file back on two threads, each at least once and for as long as
/// the writer appends the next file. Every read must match; afterwards
/// every file reads back and the redundancy is consistent.
void degraded_reads_beside_appends(
    Archive& archive, BlockStore& store, std::size_t rounds,
    const std::function<Bytes(std::size_t round, Rng& rng)>& next_file,
    const std::function<std::vector<NodeIndex>(const FileEntry&)>& victims) {
  Rng rng(41);
  std::map<std::string, Bytes> truth;
  std::string last = "f0";
  truth[last] = next_file(0, rng);
  archive.add_file(last, truth[last]);
  for (std::size_t round = 1; round <= rounds; ++round) {
    const std::optional<FileEntry> entry = archive.find_file(last);
    ASSERT_TRUE(entry.has_value());
    for (const NodeIndex i : victims(*entry))
      ASSERT_TRUE(store.erase(BlockKey::data(i))) << "d" << i;

    std::string next = "f";
    next += std::to_string(round);
    const Bytes content = next_file(round, rng);
    const Bytes& expected = truth.at(last);
    std::atomic<bool> writing{true};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r)
      readers.emplace_back([&] {
        do {
          if (archive.read_file(last) != expected) ++mismatches;
        } while (writing.load());
      });
    archive.add_file(next, content);
    writing = false;
    for (std::thread& t : readers) t.join();
    ASSERT_EQ(mismatches.load(), 0) << "round " << round;
    truth[next] = content;
    last = next;
  }
  for (const auto& [name, content] : truth)
    EXPECT_EQ(archive.read_file(name), content) << name;
  EXPECT_EQ(archive.missing_blocks(), 0u);
  const ScrubReport scrub = archive.scrub();
  EXPECT_EQ(scrub.inconsistent_parities, 0u);
  EXPECT_EQ(scrub.repair.blocks_repaired_total(), 0u);
}

TEST_F(ArchiveConcurrencyTest, DegradedGetsBesideAnAeAppendReadBackExactly) {
  // The lost blocks include the lattice's last node, whose repair reads
  // the open-edge parities while the writer appends after it.
  const auto store = test::register_hooked_family("concurrencyae");
  auto archive = Archive::create(root_, "AE(3,2,5)", 64,
                                 Engine::with_threads(2), "concurrencyae");
  degraded_reads_beside_appends(
      *archive, **store, 40,
      [](std::size_t round, Rng& rng) {
        return rng.random_block(64 * (24 + round % 7) + round % 64);
      },
      [&](const FileEntry& entry) {
        const auto n = static_cast<NodeIndex>(entry.block_count(64));
        return std::vector<NodeIndex>{entry.first_block,
                                      entry.first_block + n / 2,
                                      entry.first_block + n - 1};
      });
}

TEST_F(ArchiveConcurrencyTest, DegradedGetsBesideAnRsAppendReadBackExactly) {
  // RS(4,2) with every file a whole number of stripes long after a
  // 10-block start: each file ends two blocks into a partial tail stripe,
  // and its lost last block sits in the stripe the next append fills and
  // re-encodes.
  const auto store = test::register_hooked_family("concurrencyrs");
  auto archive = Archive::create(root_, "RS(4,2)", 64,
                                 Engine::with_threads(2), "concurrencyrs");
  degraded_reads_beside_appends(
      *archive, **store, 40,
      [](std::size_t round, Rng& rng) {
        return rng.random_block(round == 0 ? 64 * 10
                                           : 64 * 4 * (2 + round % 5));
      },
      [](const FileEntry& entry) {
        const auto n = static_cast<NodeIndex>(entry.block_count(64));
        return std::vector<NodeIndex>{entry.first_block + n - 1};
      });
}

TEST_F(ArchiveConcurrencyTest, TailStripeRepairHoldsOffTheAppendReEncodingIt) {
  // A reader repairs d10, the lost member of the partial tail stripe
  // {d9, d10, 0, 0} of RS(4,2), and is held just before it reads the
  // stripe's first parity. An append then fills the stripe's zero slots
  // and re-encodes its parities. The append must wait for the repair:
  // a decode of the old members against the new parities would store
  // wrong bytes for d10.
  const auto store = test::register_hooked_family("concurrencytail");
  auto archive = Archive::create(root_, "RS(4,2)", 64,
                                 Engine::with_threads(2), "concurrencytail");
  Rng rng(45);
  const Bytes first = rng.random_block(64 * 10);
  archive->add_file("first", first);
  ASSERT_TRUE((*store)->erase(BlockKey::data(10)));

  // Stripe 2's parities are keys 2·m + j + 1 = 5 and 6.
  const BlockKey first_parity{BlockKey::Kind::kParity,
                              StrandClass::kHorizontal, 5};
  std::promise<void> reader_held;
  std::atomic<bool> armed{true};
  (*store)->before_get = [&](const BlockKey& key) {
    if (key == first_parity && armed.exchange(false)) {
      reader_held.set_value();
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  };
  std::optional<Bytes> read;
  std::thread reader([&] { read = archive->read_file("first"); });
  reader_held.get_future().wait();
  const Bytes second = rng.random_block(64 * 4);
  archive->add_file("second", second);
  reader.join();
  (*store)->before_get = nullptr;

  EXPECT_EQ(read, first);
  EXPECT_EQ(archive->read_file("first"), first);
  EXPECT_EQ(archive->read_file("second"), second);
  EXPECT_EQ(archive->scrub().inconsistent_parities, 0u);
}

TEST_F(ArchiveConcurrencyTest, ExclusiveOpsWaitForOpenReaders) {
  Rng rng(43);
  const Bytes content = rng.random_block(64 * 200 + 7);
  auto archive = Archive::create(root_, "AE(3,2,5)", 64,
                                 Engine::with_threads(2),
                                 "cluster(4,strand,mem)");
  archive->add_file("doc", content);

  const std::vector<std::pair<std::string, std::function<void()>>> ops = {
      {"scrub", [&] { archive->scrub(); }},
      {"reindex", [&] { archive->reindex(); }},
      {"inject_damage", [&] { archive->inject_damage(0.0, 1); }},
      {"fail_node", [&] { archive->fail_node(1); }},
      {"heal_node", [&] { archive->heal_node(1); }},
      {"fail_node", [&] { archive->fail_node(2); }},
      {"rebuild_node", [&] { archive->rebuild_node(2); }},
  };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    std::optional<FileReader> reader = archive->open_reader("doc");
    ASSERT_TRUE(reader->next_chunk().has_value());
    std::atomic<bool> done{false};
    std::thread exclusive([&, &run = op] {
      run();
      done = true;
    });
    // Unguarded, every one of these finishes in well under this.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(done.load()) << name << " ran beside an open reader";
    reader.reset();
    exclusive.join();
    EXPECT_TRUE(done.load());
  }
  EXPECT_EQ(archive->read_file("doc"), content);
}

TEST_F(ArchiveConcurrencyTest, ReaderLeaseMovesWithTheReader) {
  const auto store = test::register_hooked_family("concurrencylease");
  Rng rng(44);
  const Bytes content = rng.random_block(64 * 20);
  auto archive = Archive::create(root_, "RS(4,2)", 64,
                                 Engine::with_threads(2), "concurrencylease");
  archive->add_file("doc", content);
  archive->add_file("late", content);  // read by the opening thread
  const NodeIndex late_first = archive->find_file("late")->first_block;
  // Store reads in the order they run, each under the gate: the scrub's
  // integrity scan ('s', the batches holding parities) exclusively, the
  // read of "late" ('l', its data blocks) on its lease. A flag set once
  // scrub() returns could not order them: the read may finish in the
  // moment between the scrub releasing the gate and that store.
  std::mutex mu;
  std::vector<char> order;
  (*store)->before_batch = [&](const std::vector<BlockKey>& keys) {
    const bool scrub =
        std::any_of(keys.begin(), keys.end(),
                    [](const BlockKey& k) { return !k.is_data(); });
    if (!scrub && keys.front().index < late_first) return;  // "doc"
    std::lock_guard lock(mu);
    order.push_back(scrub ? 's' : 'l');
  };
  // Opened here, then read and dropped on another thread.
  FileReader reader = archive->open_reader("doc");
  std::thread holder([moved = std::move(reader)]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::optional<BytesView> chunk = moved.next_chunk();
    while (chunk && !chunk->empty()) chunk = moved.next_chunk();
  });  // the reader dies with the lambda, on the holder thread
  std::atomic<bool> scrubbed{false};
  std::thread exclusive([&] {
    archive->scrub();
    scrubbed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(scrubbed.load()) << "scrub ran beside the moved reader";
  // The opening thread gets no lease past the waiting scrub: this read
  // starts only after the holder drops the reader and the scrub is done.
  EXPECT_EQ(archive->read_file("late"), content);
  holder.join();
  exclusive.join();
  EXPECT_TRUE(scrubbed.load());
  (*store)->before_batch = nullptr;
  const auto first_late = std::find(order.begin(), order.end(), 'l');
  ASSERT_NE(first_late, order.end());
  EXPECT_NE(std::find(order.begin(), first_late, 's'), first_late)
      << "the read of late ran before the scrub";
  EXPECT_EQ(std::find(first_late, order.end(), 's'), order.end())
      << "the read of late ran beside the scrub";
}

}  // namespace
}  // namespace aec::tools
