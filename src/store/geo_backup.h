// Cooperative geo-replicated backup (paper §IV-A, Fig 5, Tables III & V).
//
// Two-tier architecture: storage nodes (lower tier) hold parity blocks
// for other users; brokers (upper tier) encode/decode. Users keep their
// data blocks on their own machine and push the α parities per block to
// remote nodes chosen by a deterministic key→node mapping, so multiple
// per-user lattices coexist over one loosely connected cluster.
//
// The broker plugs a RoutingStore into the library's encoder and repairer
// (pipeline::ParallelEncoder/ParallelRepairer on a one-worker pool, which
// is safe on the unsynchronized store): data keys resolve to local
// storage, parity keys to network nodes (with re-homing onto an online
// node when the default home is down). Repair is therefore the standard
// lattice repair, executed against remote blocks — exactly the Table III
// step sequence.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/codec/block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/thread_pool.h"

namespace aec::store {

using StorageNodeId = std::uint32_t;

/// The lower tier: a loosely connected cluster of storage nodes sharing
/// space for parity blocks. Blocks are namespaced by user.
class CooperativeNetwork {
 public:
  explicit CooperativeNetwork(std::uint32_t node_count);

  std::uint32_t node_count() const noexcept;
  void set_online(StorageNodeId node, bool online);
  bool is_online(StorageNodeId node) const;
  std::vector<StorageNodeId> online_nodes() const;

  /// Returns false (and stores nothing) when the node is offline.
  bool put(StorageNodeId node, const std::string& user,
           const BlockKey& key, Bytes value);
  /// nullptr when the node is offline or the block is absent.
  const Bytes* find(StorageNodeId node, const std::string& user,
                    const BlockKey& key) const;
  bool erase(StorageNodeId node, const std::string& user,
             const BlockKey& key);
  /// Blocks currently stored at a node (all users).
  std::uint64_t blocks_stored(StorageNodeId node) const;

 private:
  struct Node {
    bool online = true;
    std::map<std::pair<std::string, std::string>, Bytes> blocks;
  };
  static std::string flat_key(const BlockKey& key);
  std::vector<Node> nodes_;
};

/// One lattice-repair interaction, in the shape of Table III.
struct RepairTrace {
  std::vector<std::string> steps;
};

/// A row of Table V: the block table the simulation framework keeps.
struct BlockTableRow {
  NodeIndex i = 0;
  NodeIndex j = 0;            ///< head node for parities; == i for data
  std::string type;           ///< "d", "h", "rh", "lh"
  std::int64_t location = -1; ///< storage node id; -1 = broker-local data
  bool available = false;
  bool repaired = false;
};

/// The upper tier: encodes a user's files into their entanglement lattice
/// and maintains it against node failures.
class Broker {
 public:
  Broker(std::string user, CodeParams params, std::size_t block_size,
         CooperativeNetwork* network, std::uint64_t placement_seed = 0);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Splits `content` into zero-padded blocks and entangles them.
  /// Returns the lattice indices written.
  std::vector<NodeIndex> backup(BytesView content);

  const CodeParams& params() const noexcept { return params_; }
  std::size_t block_size() const noexcept { return block_size_; }
  std::uint64_t blocks() const noexcept;
  const std::string& user() const noexcept { return user_; }

  /// Default home node of a parity (deterministic hash placement).
  StorageNodeId parity_home(Edge e) const;

  /// Simulates losing a data block from the user's machine.
  void lose_local_data(NodeIndex i);

  /// Reads block i; if the local copy is gone, repairs it from remote
  /// pp-tuples (Table III flow) and records the steps taken.
  std::optional<Bytes> read_block(NodeIndex i, RepairTrace* trace = nullptr);

  /// Re-creates every parity that is unavailable (faulty/offline node)
  /// but recoverable, re-homing blocks whose node is offline.
  struct MaintenanceReport {
    std::uint64_t parities_missing = 0;
    std::uint64_t parities_repaired = 0;
    std::uint64_t data_repaired = 0;
    std::uint64_t unrecoverable = 0;
  };
  MaintenanceReport regenerate_lattice();

  /// Table V for the neighbourhood of node i: the data row plus the 2α
  /// incident parity rows with their locations and availability.
  std::vector<BlockTableRow> block_table(NodeIndex i) const;

 private:
  class RoutingStore;

  std::string user_;
  CodeParams params_;
  std::size_t block_size_;
  CooperativeNetwork* network_;
  std::uint64_t placement_seed_;
  std::unique_ptr<RoutingStore> store_;
  pipeline::ThreadPool pool_{1};
  std::unique_ptr<pipeline::ParallelEncoder> encoder_;
};

}  // namespace aec::store
