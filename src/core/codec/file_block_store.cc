#include "core/codec/file_block_store.h"

#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/codec/file_io.h"
#include "core/util/tagged_file.h"

namespace aec {

namespace fs = std::filesystem;

struct FileBlockStore::Shard {
  mutable std::mutex mu;
  fs::path dir;
  std::unordered_map<BlockKey, bool, BlockKeyHash> index;
  mutable std::unordered_map<BlockKey, Bytes, BlockKeyHash> cache;

  // Write-behind state, all guarded by mu. FIFO order per shard keeps
  // same-key overwrites last-write-wins on disk.
  std::deque<std::pair<BlockKey, Bytes>> wb_queue;
  /// Key whose file write the flusher currently holds outside the lock;
  /// erase() must wait it out before removing the file.
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
    shard.wb_cv.wait(
        lock, [&] { return shard.wb_stop || !shard.wb_queue.empty(); });
    if (shard.wb_queue.empty()) return;  // only when wb_stop: full drain
    auto [key, payload] = std::move(shard.wb_queue.front());
    shard.wb_queue.pop_front();
    shard.wb_in_flight = key;
    lock.unlock();
    const bool ok = write_block_file(path_of(key), payload);
    if (ok)
      wb_flushed_blocks_->add();
    else
      wb_failed_.store(true, std::memory_order_relaxed);
    lock.lock();
    shard.wb_in_flight.reset();
    wb_queue_blocks_->add(-1);
    shard.wb_cv.notify_all();
  }
}

void FileBlockStore::drain_locked(Shard& shard,
                                  std::unique_lock<std::mutex>& lock) const {
  shard.wb_cv.wait(lock, [&] {
    return shard.wb_queue.empty() && !shard.wb_in_flight.has_value();
  });
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
    shard.cache.clear();
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
        shard.index[BlockKey{kind, cls, idx}] = true;
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
    for (const auto& [key, present] : shard.index) fn(key);
  }
  return true;
}

void FileBlockStore::put_locked(Shard& shard,
                                std::unique_lock<std::mutex>& lock,
                                const BlockKey& key, Bytes value) {
  if (write_behind_) {
    check_wb_healthy();
    // Backpressure: block the producer (lock released while waiting)
    // until the flusher drains below the per-shard bound.
    shard.wb_cv.wait(lock, [&] {
      return shard.wb_queue.size() < kMaxQueuedBlocksPerShard;
    });
    shard.wb_queue.emplace_back(key, value);  // copy; cache keeps the move
    wb_queue_blocks_->add(1);
    shard.wb_cv.notify_all();
  } else {
    const fs::path path = path_of(key);
    AEC_CHECK_MSG(write_block_file(path, value),
                  "cannot write " << path.string());
  }
  shard.index[key] = true;
  shard.cache[key] = std::move(value);
  notify(key, true);
}

void FileBlockStore::put(const BlockKey& key, Bytes value) {
  Shard& shard = shard_of(key);
  std::unique_lock lock(shard.mu);
  put_locked(shard, lock, key, std::move(value));
}

void FileBlockStore::put_batch(std::vector<std::pair<BlockKey, Bytes>> items) {
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

const Bytes* FileBlockStore::resolve_locked(Shard& shard,
                                            const BlockKey& key) const {
  if (!shard.index.contains(key)) return nullptr;
  if (const auto it = shard.cache.find(key); it != shard.cache.end()) {
    cache_hits_->add();
    return &it->second;
  }
  cache_misses_->add();
  auto payload = read_block_file(path_of(key));
  if (!payload) return nullptr;  // deleted or truncated externally
  const auto [it, inserted] = shard.cache.emplace(key, std::move(*payload));
  return &it->second;
}

const Bytes* FileBlockStore::find(const BlockKey& key) const {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mu);
  // Node-map mapped references survive rehash, so the pointer stays
  // valid after unlock until this key mutates or the cache drops.
  return resolve_locked(shard, key);
}

bool FileBlockStore::contains(const BlockKey& key) const {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mu);
  return shard.index.contains(key);
}

bool FileBlockStore::erase(const BlockKey& key) {
  Shard& shard = shard_of(key);
  std::unique_lock lock(shard.mu);
  if (write_behind_) {
    // Purge queued writes of this key and wait out an in-flight one so
    // the flusher cannot recreate the file after the remove below.
    for (auto it = shard.wb_queue.begin(); it != shard.wb_queue.end();) {
      if (it->first == key) {
        it = shard.wb_queue.erase(it);
        wb_queue_blocks_->add(-1);
      } else {
        ++it;
      }
    }
    shard.wb_cv.wait(lock, [&] { return shard.wb_in_flight != key; });
  }
  shard.cache.erase(key);
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

std::optional<Bytes> FileBlockStore::get_copy(const BlockKey& key) const {
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mu);
  const Bytes* value = resolve_locked(shard, key);
  if (value == nullptr) return std::nullopt;
  return *value;
}

std::vector<std::optional<Bytes>> FileBlockStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  if (!keys.empty()) get_batch_blocks_->observe(keys.size());
  std::vector<std::optional<Bytes>> payloads(keys.size());
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t j = 0; j < keys.size(); ++j)
    buckets[shard_index(keys[j])].push_back(j);
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k].empty()) continue;
    Shard& shard = *shards_[k];
    std::lock_guard lock(shard.mu);
    for (const std::size_t j : buckets[k]) {
      const BlockKey& key = keys[j];
      if (!shard.index.contains(key)) continue;
      if (const auto it = shard.cache.find(key); it != shard.cache.end()) {
        cache_hits_->add();
        payloads[j] = it->second;
        continue;
      }
      // Streaming read: raw file I/O, no cache insert (see the BlockStore
      // caching contract).
      cache_misses_->add();
      payloads[j] = read_block_file(path_of(key));
    }
  }
  return payloads;
}

void FileBlockStore::prefetch(const std::vector<BlockKey>& keys) const {
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t j = 0; j < keys.size(); ++j)
    buckets[shard_index(keys[j])].push_back(j);
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k].empty()) continue;
    Shard& shard = *shards_[k];
    std::lock_guard lock(shard.mu);
    for (const std::size_t j : buckets[k])
      resolve_locked(shard, keys[j]);  // caching path; misses load the cache
  }
}

void FileBlockStore::drop_payload_cache() const {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock lock(shard.mu);
    // Unflushed blocks live only in the cache (files not written yet);
    // drain before dropping so readers fall through to complete files.
    if (write_behind_) drain_locked(shard, lock);
    shard.cache.clear();
  }
  if (write_behind_) check_wb_healthy();
}

}  // namespace aec
