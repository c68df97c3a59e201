#include "store/raid_ae.h"

#include <unordered_map>

#include "common/check.h"
#include "pipeline/parallel_repairer.h"

namespace aec::store {

// A BlockStore over a set of drives: each block is pinned to the drive it
// was written to; an offline drive hides (but does not delete) its
// blocks. find() bumps a fetch counter so repair bandwidth is observable.
class RaidAeArray::ArrayStore final : public BlockStore {
 public:
  explicit ArrayStore(std::uint32_t drives) : online_(drives, 1) {}

  std::uint32_t drive_count() const {
    return static_cast<std::uint32_t>(online_.size());
  }
  void add_drive() { online_.push_back(1); }

  void set_online(std::uint32_t drive, bool online) {
    AEC_CHECK_MSG(drive < online_.size(), "no such drive " << drive);
    online_[drive] = online ? 1 : 0;
  }
  bool is_online(std::uint32_t drive) const {
    AEC_CHECK_MSG(drive < online_.size(), "no such drive " << drive);
    return online_[drive] != 0;
  }

  /// Next drive in round-robin arrival order, skipping offline drives.
  std::uint32_t next_target() {
    const auto drives = static_cast<std::uint32_t>(online_.size());
    for (std::uint32_t probe = 0; probe < drives; ++probe) {
      const std::uint32_t drive = (cursor_ + probe) % drives;
      if (online_[drive]) {
        cursor_ = (drive + 1) % drives;
        return drive;
      }
    }
    AEC_CHECK_MSG(false, "no online drives left");
    return 0;
  }

  std::uint32_t drive_of(const BlockKey& key) const {
    const auto it = blocks_.find(key);
    AEC_CHECK_MSG(it != blocks_.end(),
                  "unknown block " << to_string(key));
    return it->second.drive;
  }

  void put(const BlockKey& key, Bytes value) override {
    // Rewrites keep the drive; new blocks go to the round-robin target.
    const auto it = blocks_.find(key);
    if (it != blocks_.end() && online_[it->second.drive]) {
      it->second.payload = std::move(value);
      return;
    }
    blocks_[key] = Slot{next_target(), std::move(value)};
  }

  const Bytes* find(const BlockKey& key) const override {
    const auto it = blocks_.find(key);
    if (it == blocks_.end() || !online_[it->second.drive]) return nullptr;
    ++fetches_;
    return &it->second.payload;
  }

  bool contains(const BlockKey& key) const override {
    const auto it = blocks_.find(key);
    return it != blocks_.end() && online_[it->second.drive] != 0;
  }

  bool erase(const BlockKey& key) override { return blocks_.erase(key) > 0; }

  std::uint64_t size() const override { return blocks_.size(); }

  std::uint64_t fetches() const { return fetches_; }
  void reset_fetches() { fetches_ = 0; }

  /// Keys pinned to a drive (online or not).
  std::vector<BlockKey> keys_on_drive(std::uint32_t drive) const {
    std::vector<BlockKey> keys;
    for (const auto& [key, slot] : blocks_)
      if (slot.drive == drive) keys.push_back(key);
    return keys;
  }

  /// Drops a block's pin so the next put() re-places it.
  void unpin(const BlockKey& key) { blocks_.erase(key); }

  std::uint64_t parity_checksum() const {
    std::uint64_t sum = 0;
    for (const auto& [key, slot] : blocks_) {
      if (!key.is_parity()) continue;
      sum ^= fnv1a64(slot.payload) ^
             (static_cast<std::uint64_t>(key.index) << 8);
    }
    return sum;
  }

 private:
  struct Slot {
    std::uint32_t drive = 0;
    Bytes payload;
  };
  std::vector<std::uint8_t> online_;
  std::unordered_map<BlockKey, Slot, BlockKeyHash> blocks_;
  std::uint32_t cursor_ = 0;
  mutable std::uint64_t fetches_ = 0;
};

RaidAeArray::RaidAeArray(CodeParams params, std::uint32_t drives,
                         std::size_t block_size)
    : params_(std::move(params)), block_size_(block_size) {
  AEC_CHECK_MSG(drives >= 2, "an array needs at least two drives");
  store_ = std::make_unique<ArrayStore>(drives);
  encoder_ = std::make_unique<pipeline::ParallelEncoder>(
      params_, block_size_, store_.get(), &pool_);
}

RaidAeArray::~RaidAeArray() = default;

NodeIndex RaidAeArray::write_block(BytesView data) {
  // One block per batch: a one-worker pool runs the α parity tasks in
  // class order, then the data task, so device writes keep arrival order.
  return encoder_->append_all({Bytes(data.begin(), data.end())})
      .front()
      .index;
}

std::uint32_t RaidAeArray::drive_count() const noexcept {
  return store_->drive_count();
}

std::uint64_t RaidAeArray::blocks_written() const noexcept {
  return encoder_->size();
}

std::uint32_t RaidAeArray::write_penalty() const noexcept {
  return params_.alpha() + 1;
}

void RaidAeArray::add_drive() { store_->add_drive(); }

void RaidAeArray::set_drive_online(std::uint32_t drive, bool online) {
  store_->set_online(drive, online);
}

bool RaidAeArray::is_drive_online(std::uint32_t drive) const {
  return store_->is_online(drive);
}

std::uint32_t RaidAeArray::drive_of_data(NodeIndex i) const {
  return store_->drive_of(BlockKey::data(i));
}

std::uint32_t RaidAeArray::drive_of_parity(Edge e) const {
  return store_->drive_of(BlockKey::parity(e));
}

namespace {

// Scratch layer over a base store: repairs performed during a degraded
// read land here and evaporate with the overlay, leaving the array
// untouched (the owning drive is only *temporarily* offline).
class OverlayStore final : public BlockStore {
 public:
  explicit OverlayStore(BlockStore* base) : base_(base) {}

  void put(const BlockKey& key, Bytes value) override {
    scratch_[key] = std::move(value);
  }
  const Bytes* find(const BlockKey& key) const override {
    if (const auto it = scratch_.find(key); it != scratch_.end())
      return &it->second;
    return base_->find(key);
  }
  bool contains(const BlockKey& key) const override {
    return scratch_.contains(key) || base_->contains(key);
  }
  bool erase(const BlockKey& key) override {
    return scratch_.erase(key) > 0;
  }
  std::uint64_t size() const override {
    return base_->size() + scratch_.size();
  }

 private:
  BlockStore* base_;
  std::unordered_map<BlockKey, Bytes, BlockKeyHash> scratch_;
};

}  // namespace

RaidAeArray::ReadResult RaidAeArray::degraded_read(NodeIndex i) {
  ReadResult result;
  store_->reset_fetches();
  if (const Bytes* direct = store_->find(BlockKey::data(i))) {
    result.value = *direct;
    result.blocks_fetched = store_->fetches();
    return result;
  }
  result.degraded = true;
  OverlayStore overlay(store_.get());
  pipeline::ParallelRepairer repairer(params_, blocks_written(), block_size_,
                                      &overlay, &pool_);
  result.value = repairer.read_node(i);
  result.blocks_fetched = store_->fetches();  // device reads only
  return result;
}

RaidAeArray::RebuildReport RaidAeArray::rebuild_drive(std::uint32_t drive) {
  RebuildReport report;
  const std::vector<BlockKey> victims = store_->keys_on_drive(drive);
  store_->set_online(drive, false);
  // Unpin so repairs re-place the blocks on surviving drives.
  for (const BlockKey& key : victims) store_->unpin(key);

  store_->reset_fetches();
  pipeline::ParallelRepairer repairer(params_, blocks_written(), block_size_,
                                      store_.get(), &pool_);
  const RepairReport repair = repairer.repair_all();
  report.blocks_rebuilt =
      repair.nodes_repaired_total + repair.edges_repaired_total;
  report.blocks_read = store_->fetches();
  report.unrecoverable =
      repair.nodes_unrecovered + repair.edges_unrecovered;
  return report;
}

std::uint64_t RaidAeArray::parity_checksum() const {
  return store_->parity_checksum();
}

}  // namespace aec::store
