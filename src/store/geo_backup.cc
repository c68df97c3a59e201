#include "store/geo_backup.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "pipeline/parallel_repairer.h"

namespace aec::store {

// ---------------------------------------------------------------------------
// CooperativeNetwork

CooperativeNetwork::CooperativeNetwork(std::uint32_t node_count)
    : nodes_(node_count) {
  AEC_CHECK_MSG(node_count >= 1, "network needs at least one node");
}

std::uint32_t CooperativeNetwork::node_count() const noexcept {
  return static_cast<std::uint32_t>(nodes_.size());
}

void CooperativeNetwork::set_online(StorageNodeId node, bool online) {
  AEC_CHECK_MSG(node < nodes_.size(), "no such node " << node);
  nodes_[node].online = online;
}

bool CooperativeNetwork::is_online(StorageNodeId node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no such node " << node);
  return nodes_[node].online;
}

std::vector<StorageNodeId> CooperativeNetwork::online_nodes() const {
  std::vector<StorageNodeId> ids;
  for (StorageNodeId n = 0; n < nodes_.size(); ++n)
    if (nodes_[n].online) ids.push_back(n);
  return ids;
}

std::string CooperativeNetwork::flat_key(const BlockKey& key) {
  return to_string(key);
}

bool CooperativeNetwork::put(StorageNodeId node, const std::string& user,
                             const BlockKey& key, Bytes value) {
  AEC_CHECK_MSG(node < nodes_.size(), "no such node " << node);
  if (!nodes_[node].online) return false;
  nodes_[node].blocks[{user, flat_key(key)}] = std::move(value);
  return true;
}

const Bytes* CooperativeNetwork::find(StorageNodeId node,
                                      const std::string& user,
                                      const BlockKey& key) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no such node " << node);
  if (!nodes_[node].online) return nullptr;
  const auto it = nodes_[node].blocks.find({user, flat_key(key)});
  return it == nodes_[node].blocks.end() ? nullptr : &it->second;
}

bool CooperativeNetwork::erase(StorageNodeId node, const std::string& user,
                               const BlockKey& key) {
  AEC_CHECK_MSG(node < nodes_.size(), "no such node " << node);
  if (!nodes_[node].online) return false;
  return nodes_[node].blocks.erase({user, flat_key(key)}) > 0;
}

std::uint64_t CooperativeNetwork::blocks_stored(StorageNodeId node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no such node " << node);
  return nodes_[node].blocks.size();
}

// ---------------------------------------------------------------------------
// Broker::RoutingStore — data keys live locally, parity keys on the
// network (re-homed to an online node when the default home is down).

class Broker::RoutingStore final : public BlockStore {
 public:
  RoutingStore(std::string user, CooperativeNetwork* network,
               std::uint64_t seed)
      : user_(std::move(user)), network_(network), seed_(seed) {}

  StorageNodeId default_home(const BlockKey& key) const {
    // Deterministic key→node mapping ("a value derived from the node id
    // and the block position", §IV-A) via one round of SplitMix-style
    // hashing on (seed, kind, class, index).
    std::uint64_t h = seed_;
    h ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(key.kind) + 1);
    h ^= 0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(key.cls) + 1);
    h ^= 0x94D049BB133111EBULL * static_cast<std::uint64_t>(key.index);
    h ^= h >> 31;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return static_cast<StorageNodeId>(h % network_->node_count());
  }

  /// Current home: the override (after a re-homing repair) or the default.
  StorageNodeId home(const BlockKey& key) const {
    const auto it = overrides_.find(key);
    return it == overrides_.end() ? default_home(key) : it->second;
  }

  void put(const BlockKey& key, Bytes value) override {
    if (key.is_data()) {
      local_[key] = std::move(value);
      return;
    }
    StorageNodeId target = home(key);
    if (!network_->is_online(target)) {
      // Re-home onto a live node; remember the move.
      const auto online = network_->online_nodes();
      AEC_CHECK_MSG(!online.empty(), "no online storage nodes left");
      Rng rng(seed_ ^ static_cast<std::uint64_t>(key.index) * 2654435761u);
      target = online[rng.uniform(online.size())];
      overrides_[key] = target;
    }
    network_->put(target, user_, key, std::move(value));
  }

  const Bytes* find(const BlockKey& key) const override {
    if (key.is_data()) {
      const auto it = local_.find(key);
      return it == local_.end() ? nullptr : &it->second;
    }
    return network_->find(home(key), user_, key);
  }

  bool contains(const BlockKey& key) const override {
    return find(key) != nullptr;
  }

  bool erase(const BlockKey& key) override {
    if (key.is_data()) return local_.erase(key) > 0;
    return network_->erase(home(key), user_, key);
  }

  std::uint64_t size() const override { return local_.size(); }

 private:
  std::string user_;
  CooperativeNetwork* network_;
  std::uint64_t seed_;
  std::unordered_map<BlockKey, Bytes, BlockKeyHash> local_;
  std::unordered_map<BlockKey, StorageNodeId, BlockKeyHash> overrides_;
};

// ---------------------------------------------------------------------------
// Broker

Broker::Broker(std::string user, CodeParams params, std::size_t block_size,
               CooperativeNetwork* network, std::uint64_t placement_seed)
    : user_(std::move(user)),
      params_(std::move(params)),
      block_size_(block_size),
      network_(network),
      placement_seed_(placement_seed) {
  AEC_CHECK_MSG(network_ != nullptr, "broker needs a network");
  store_ = std::make_unique<RoutingStore>(user_, network_, placement_seed_);
  encoder_ = std::make_unique<pipeline::ParallelEncoder>(
      params_, block_size_, store_.get(), &pool_);
}

Broker::~Broker() = default;

std::vector<NodeIndex> Broker::backup(BytesView content) {
  std::vector<Bytes> blocks;
  for (std::size_t offset = 0; offset < content.size();
       offset += block_size_) {
    Bytes& block = blocks.emplace_back(block_size_, 0);  // zero-padded tail
    const std::size_t len = std::min(block_size_, content.size() - offset);
    std::copy_n(content.begin() + static_cast<std::ptrdiff_t>(offset), len,
                block.begin());
  }
  std::vector<NodeIndex> written;
  for (const EncodeResult& result : encoder_->append_all(blocks))
    written.push_back(result.index);
  return written;
}

std::uint64_t Broker::blocks() const noexcept { return encoder_->size(); }

StorageNodeId Broker::parity_home(Edge e) const {
  return store_->home(BlockKey::parity(e));
}

void Broker::lose_local_data(NodeIndex i) {
  store_->erase(BlockKey::data(i));
}

std::optional<Bytes> Broker::read_block(NodeIndex i, RepairTrace* trace) {
  AEC_CHECK_MSG(blocks() > 0, "nothing backed up yet");
  if (const Bytes* local = store_->find(BlockKey::data(i))) {
    if (trace) trace->steps.push_back("local read: d" + std::to_string(i));
    return *local;
  }

  // Table III flow, generalized: gather the pp-tuple ids per strand,
  // resolve their storage locations, fetch and XOR (the repairer performs
  // steps 4–5; we record 1–3 for observability).
  const Lattice lat(params_, blocks(), Lattice::Boundary::kOpen);
  if (trace) {
    for (StrandClass cls : params_.classes()) {
      std::ostringstream step;
      step << "pp-tuple[" << to_string(cls) << "]:";
      if (const auto in = lat.input_edge(i, cls)) {
        step << " " << to_string(BlockKey::parity(*in)) << "@n"
             << parity_home(*in)
             << (store_->contains(BlockKey::parity(*in)) ? "(ok)"
                                                         : "(missing)");
      } else {
        step << " bootstrap-zero";
      }
      const Edge out = lat.output_edge(i, cls);
      step << " + " << to_string(BlockKey::parity(out)) << "@n"
           << parity_home(out)
           << (store_->contains(BlockKey::parity(out)) ? "(ok)"
                                                       : "(missing)");
      trace->steps.push_back(step.str());
    }
  }
  pipeline::ParallelRepairer repairer(params_, blocks(), block_size_,
                                      store_.get(), &pool_);
  auto value = repairer.read_node(i);
  if (trace)
    trace->steps.push_back(value ? "repair: d" + std::to_string(i) +
                                       " regenerated with XOR"
                                 : "repair failed: insufficient tuples");
  return value;
}

Broker::MaintenanceReport Broker::regenerate_lattice() {
  MaintenanceReport report;
  AEC_CHECK_MSG(blocks() > 0, "nothing backed up yet");
  const Lattice lat(params_, blocks(), Lattice::Boundary::kOpen);
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(blocks()); ++i)
    for (StrandClass cls : params_.classes())
      if (!store_->contains(BlockKey::parity(lat.output_edge(i, cls))))
        ++report.parities_missing;

  pipeline::ParallelRepairer repairer(params_, blocks(), block_size_,
                                      store_.get(), &pool_);
  const RepairReport repair = repairer.repair_all();
  report.parities_repaired = repair.edges_repaired_total;
  report.data_repaired = repair.nodes_repaired_total;
  report.unrecoverable =
      repair.nodes_unrecovered + repair.edges_unrecovered;
  return report;
}

std::vector<BlockTableRow> Broker::block_table(NodeIndex i) const {
  AEC_CHECK_MSG(blocks() > 0, "nothing backed up yet");
  const Lattice lat(params_, blocks(), Lattice::Boundary::kOpen);
  AEC_CHECK_MSG(lat.is_valid_node(i), "invalid node " << i);

  const auto type_of = [](StrandClass cls) {
    switch (cls) {
      case StrandClass::kHorizontal:
        return "h";
      case StrandClass::kRightHanded:
        return "rh";
      case StrandClass::kLeftHanded:
        return "lh";
    }
    return "?";
  };

  std::vector<BlockTableRow> rows;
  rows.push_back(BlockTableRow{
      .i = i,
      .j = i,
      .type = "d",
      .location = -1,  // broker-local
      .available = store_->contains(BlockKey::data(i)),
      .repaired = false});
  for (StrandClass cls : params_.classes()) {
    if (const auto in = lat.input_edge(i, cls)) {
      rows.push_back(BlockTableRow{
          .i = in->tail,
          .j = i,
          .type = type_of(cls),
          .location = static_cast<std::int64_t>(parity_home(*in)),
          .available = store_->contains(BlockKey::parity(*in)),
          .repaired = false});
    }
    const Edge out = lat.output_edge(i, cls);
    rows.push_back(BlockTableRow{
        .i = i,
        .j = lat.edge_head(out),
        .type = type_of(cls),
        .location = static_cast<std::int64_t>(parity_home(out)),
        .available = store_->contains(BlockKey::parity(out)),
        .repaired = false});
  }
  return rows;
}

}  // namespace aec::store
