#include "core/codec/file_block_store.h"

#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "core/codec/file_io.h"
#include "core/util/tagged_file.h"

namespace aec {

namespace fs = std::filesystem;

struct FileBlockStore::Shard {
  struct Write {
    BlockKey key;
    Block payload;
  };

  /// Whether `write` is the newest write of its key, the one reads serve
  /// and the only one the flusher writes.
  bool is_newest(const Write& write) const {
    const auto it = newest.find(write.key);
    return it != newest.end() && it->second == &write;
  }

  mutable std::mutex mu;
  fs::path dir;

  // Everything below is guarded by mu.
  std::unordered_set<BlockKey, BlockKeyHash> index;
  /// The shard's last writes, oldest first, at most kRingBlocksPerShard
  /// after every put: ring[0, flushed) are flushed (on disk, or skipped
  /// as no longer their key's newest), the rest is the write-behind
  /// queue (always empty with synchronous writes). Entries are pushed at
  /// the back and popped at the front only, so pointers to them stay
  /// valid, and they never change once pushed.
  std::deque<Write> ring;
  std::size_t flushed = 0;
  /// Each key's newest write in the ring. An erased key has none.
  std::unordered_map<BlockKey, const Write*, BlockKeyHash> newest;

  /// Key whose file write the flusher currently holds outside the lock
  /// (always ring[flushed]); erase() must wait it out before removing
  /// the file.
  std::optional<BlockKey> wb_in_flight;
  bool wb_stop = false;
  std::condition_variable wb_cv;
  std::thread flusher;
};

namespace {

constexpr const char* kShardCountFile = "shards.txt";

/// The shard count an existing sharded root was created with, or
/// `requested` (pinned now) for a new one. The marker is outside input:
/// it is range-checked before any shard directory exists.
std::size_t pinned_shard_count(const fs::path& root, std::size_t requested) {
  const fs::path marker = root / kShardCountFile;
  if (std::ifstream in(marker); in.good()) {
    long long pinned = 0;
    in >> pinned;
    AEC_CHECK_MSG(!in.fail() && pinned >= 1 &&
                      pinned <= static_cast<long long>(
                                    FileBlockStore::kMaxShards),
                  "corrupt shard-count marker " << marker.string());
    return static_cast<std::size_t>(pinned);
  }
  util::write_text_atomic(marker, std::to_string(requested) + "\n");
  return requested;
}

}  // namespace

FileBlockStore::FileBlockStore(fs::path root)
    : root_(std::move(root)), write_behind_(false) {
  open_shards({root_});
}

FileBlockStore::FileBlockStore(fs::path root, std::size_t shards,
                               bool write_behind)
    : root_(std::move(root)), write_behind_(write_behind) {
  AEC_CHECK_MSG(shards >= 1 && shards <= kMaxShards,
                "sharded store wants 1.." << kMaxShards << " shards, got "
                                          << shards);
  fs::create_directories(root_);
  const std::size_t count = pinned_shard_count(root_, shards);
  std::vector<fs::path> dirs;
  dirs.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    dirs.push_back(root_ / ("shard" + std::to_string(k)));
  open_shards(dirs);
}

void FileBlockStore::open_shards(const std::vector<fs::path>& dirs) {
  shards_.reserve(dirs.size());
  for (const fs::path& dir : dirs) {
    auto shard = std::make_unique<Shard>();
    shard->dir = dir;
    fs::create_directories(dir / "d");
    for (const char* cls : {"H", "RH", "LH"})
      fs::create_directories(dir / "p" / cls);
    shards_.push_back(std::move(shard));
  }
  rescan();
  if (write_behind_)
    for (auto& shard : shards_)
      shard->flusher =
          std::thread([this, s = shard.get()] { flusher_main(*s); });
}

FileBlockStore::~FileBlockStore() {
  if (!write_behind_) return;
  for (const auto& shard : shards_) {
    {
      std::lock_guard lock(shard->mu);
      shard->wb_stop = true;
    }
    shard->wb_cv.notify_all();
  }
  for (const auto& shard : shards_)
    if (shard->flusher.joinable()) shard->flusher.join();
  // Durability barrier: the flushers have drained but never fsync'd;
  // one filesystem-wide flush here replaces a per-file fdatasync.
  sync_filesystem(root_);
}

void FileBlockStore::flusher_main(Shard& shard) {
  std::unique_lock lock(shard.mu);
  for (;;) {
    shard.wb_cv.wait(lock, [&] {
      return shard.wb_stop || shard.flushed < shard.ring.size();
    });
    if (shard.flushed == shard.ring.size()) return;  // wb_stop, drained
    // The entry stays in the ring (unflushed entries are never evicted)
    // and never changes, so its payload is read outside the lock.
    const Shard::Write& write = shard.ring[shard.flushed];
    if (shard.is_newest(write)) {
      shard.wb_in_flight = write.key;
      lock.unlock();
      if (write_block_file(path_of(write.key), write.payload))
        wb_flushed_blocks_->add();
      else
        wb_failed_.store(true, std::memory_order_relaxed);
      lock.lock();
      shard.wb_in_flight.reset();
    }
    ++shard.flushed;
    wb_queue_blocks_->add(-1);
    shard.wb_cv.notify_all();
  }
}

void FileBlockStore::drain_locked(Shard& shard,
                                  std::unique_lock<std::mutex>& lock) const {
  shard.wb_cv.wait(lock,
                   [&] { return shard.flushed == shard.ring.size(); });
}

void FileBlockStore::check_wb_healthy() const {
  AEC_CHECK_MSG(!wb_failed_.load(std::memory_order_relaxed),
                "sharded store: write-behind flusher failed writing a "
                "block under "
                    << root_.string());
}

void FileBlockStore::flush() const {
  if (!write_behind_) return;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock lock(shard.mu);
    drain_locked(shard, lock);
  }
  check_wb_healthy();
}

std::size_t FileBlockStore::shard_index(const BlockKey& key) const noexcept {
  return mixed_block_key_hash(key) % shards_.size();
}

FileBlockStore::Shard& FileBlockStore::shard_of(
    const BlockKey& key) const noexcept {
  return *shards_[shard_index(key)];
}

fs::path FileBlockStore::path_of(const BlockKey& key) const {
  const Shard& shard = *shards_[shard_index(key)];
  if (key.is_data()) return shard.dir / "d" / std::to_string(key.index);
  return shard.dir / "p" / to_string(key.cls) / std::to_string(key.index);
}

void FileBlockStore::rescan() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock lock(shard.mu);
    // Queued writes must land before the directory walk or the rebuilt
    // index would miss them.
    if (write_behind_) drain_locked(shard, lock);
    shard.index.clear();
    shard.newest.clear();
    shard.ring.clear();
    shard.flushed = 0;
    const auto scan_dir = [&](const fs::path& dir, BlockKey::Kind kind,
                              StrandClass cls) {
      if (!fs::exists(dir)) return;
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        // `end` points into the name, so the name must outlive it.
        const fs::path name = entry.path().filename();
        char* end = nullptr;
        const long long idx = std::strtoll(name.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || idx <= 0) continue;  // foreign
        shard.index.insert(BlockKey{kind, cls, idx});
      }
    };
    scan_dir(shard.dir / "d", BlockKey::Kind::kData,
             StrandClass::kHorizontal);
    scan_dir(shard.dir / "p" / "H", BlockKey::Kind::kParity,
             StrandClass::kHorizontal);
    scan_dir(shard.dir / "p" / "RH", BlockKey::Kind::kParity,
             StrandClass::kRightHanded);
    scan_dir(shard.dir / "p" / "LH", BlockKey::Kind::kParity,
             StrandClass::kLeftHanded);
  }
}

bool FileBlockStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mu);
    for (const BlockKey& key : shard.index) fn(key);
  }
  return true;
}

void FileBlockStore::put_locked(Shard& shard,
                                std::unique_lock<std::mutex>& lock,
                                const BlockKey& key, Block value) {
  AEC_CHECK_MSG(value, "put_block: a null Block for " << to_string(key));
  if (write_behind_) {
    check_wb_healthy();
    // Backpressure: block the producer (lock released while waiting)
    // until the flusher drains below the per-shard bound.
    shard.wb_cv.wait(lock, [&] {
      return shard.ring.size() - shard.flushed < kRingBlocksPerShard;
    });
  } else {
    const fs::path path = path_of(key);
    AEC_CHECK_MSG(write_block_file(path, value),
                  "cannot write " << path.string());
  }
  const Shard::Write& write =
      shard.ring.emplace_back(Shard::Write{key, std::move(value)});
  if (write_behind_) {
    wb_queue_blocks_->add(1);
    shard.wb_cv.notify_all();
  } else {
    ++shard.flushed;
  }
  shard.newest[key] = &write;
  // Evict the oldest flushed writes; at most kRingBlocksPerShard are
  // unflushed, so the ring is back at its bound.
  while (shard.ring.size() > kRingBlocksPerShard && shard.flushed > 0) {
    if (shard.is_newest(shard.ring.front()))
      shard.newest.erase(shard.ring.front().key);
    shard.ring.pop_front();
    --shard.flushed;
  }
  shard.index.insert(key);
  notify(key, true);
}

void FileBlockStore::put_block(const BlockKey& key, Block value) {
  Shard& shard = shard_of(key);
  std::unique_lock lock(shard.mu);
  put_locked(shard, lock, key, std::move(value));
}

void FileBlockStore::put_blocks(
    std::vector<std::pair<BlockKey, Block>> items) {
  if (!items.empty()) put_batch_blocks_->observe(items.size());
  // One lock acquisition per touched shard: bucket item offsets by shard
  // first, then drain shard by shard.
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t j = 0; j < items.size(); ++j)
    buckets[shard_index(items[j].first)].push_back(j);
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k].empty()) continue;
    Shard& shard = *shards_[k];
    std::unique_lock lock(shard.mu);
    for (const std::size_t j : buckets[k])
      put_locked(shard, lock, items[j].first, std::move(items[j].second));
  }
}

Block FileBlockStore::read_locked(const Shard& shard,
                                  const BlockKey& key) const {
  if (!shard.index.contains(key)) return Block();
  if (const auto it = shard.newest.find(key); it != shard.newest.end()) {
    ring_hits_->add();
    return it->second->payload;
  }
  // Not in the ring, so flushed: the file is complete, or was deleted or
  // truncated externally (null).
  file_reads_->add();
  return read_block_file(path_of(key));
}

bool FileBlockStore::contains(const BlockKey& key) const {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mu);
  return shard.index.contains(key);
}

bool FileBlockStore::erase(const BlockKey& key) {
  Shard& shard = shard_of(key);
  std::unique_lock lock(shard.mu);
  // Wait out an in-flight write of this key so the flusher cannot
  // recreate the file after the remove below; with no newest write left,
  // it skips the key's queued ones.
  if (write_behind_)
    shard.wb_cv.wait(lock, [&] { return shard.wb_in_flight != key; });
  shard.newest.erase(key);
  if (shard.index.erase(key) == 0) return false;
  std::error_code ec;
  fs::remove(path_of(key), ec);
  notify(key, false);
  return true;
}

std::uint64_t FileBlockStore::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

std::vector<Block> FileBlockStore::get_blocks(
    const std::vector<BlockKey>& keys) const {
  if (!keys.empty()) get_batch_blocks_->observe(keys.size());
  std::vector<Block> payloads(keys.size());
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t j = 0; j < keys.size(); ++j)
    buckets[shard_index(keys[j])].push_back(j);
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k].empty()) continue;
    const Shard& shard = *shards_[k];
    std::lock_guard lock(shard.mu);
    for (const std::size_t j : buckets[k])
      payloads[j] = read_locked(shard, keys[j]);
  }
  return payloads;
}

}  // namespace aec
