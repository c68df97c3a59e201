// Durable block store: one file per block under a root directory.
//
// Layout: <root>/d/<index> for data blocks, <root>/p/<class>/<tail> for
// parities — human-inspectable and rsync-friendly, which suits the
// archival setting the paper targets. An in-memory index is built at
// open() so contains()/find() stay cheap; payloads are read lazily and
// cached until the next mutation of the same key.
//
// This is the persistence substrate behind the `aectool` CLI: a real
// archive that survives process restarts and whose individual block
// files can be deleted/corrupted externally and then repaired through
// the lattice.
//
// Thread safety: one internal mutex serializes every operation (file
// I/O included), so sessions may run on it at any thread count; the
// sharded store is the variant whose callers do not all queue on one
// lock. find()'s pointer is still only valid until the next mutation.
#pragma once

#include <filesystem>
#include <mutex>
#include <unordered_map>

#include "core/codec/block_store.h"

namespace aec {

class FileBlockStore final : public BlockStore {
 public:
  /// Opens (creating directories if needed) an archive rooted at `root`.
  explicit FileBlockStore(std::filesystem::path root);

  void put(const BlockKey& key, Bytes value) override;
  const Bytes* find(const BlockKey& key) const override;
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;

  /// Copies the payload out under the store mutex.
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  bool thread_safe() const noexcept override { return true; }

  /// Streaming batch read: cache hits are copied out, misses are read
  /// with raw file I/O and NOT inserted into the cache (see the
  /// BlockStore caching contract).
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override;

  /// Loads the given blocks into the payload cache.
  void prefetch(const std::vector<BlockKey>& keys) const override;

  const std::filesystem::path& root() const noexcept { return root_; }

  /// Drops the payload cache (the index stays). Mostly for tests and
  /// memory-conscious batch jobs.
  void drop_cache() const;
  void drop_payload_cache() const override { drop_cache(); }

  /// Re-scans the directory tree (picks up external additions/removals).
  /// The observer is not notified of the diff; reseed any availability
  /// index afterwards.
  void rescan() override;

  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override;

  /// Filesystem path of a block.
  std::filesystem::path path_of(const BlockKey& key) const;

 private:
  /// find() body; caller holds mu_.
  const Bytes* find_locked(const BlockKey& key) const;

  std::filesystem::path root_;
  mutable std::mutex mu_;
  std::unordered_map<BlockKey, bool, BlockKeyHash> index_;
  mutable std::unordered_map<BlockKey, Bytes, BlockKeyHash> cache_;
};

}  // namespace aec
