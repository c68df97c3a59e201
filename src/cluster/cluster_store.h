// Failure-domain-aware multi-node block store.
//
// A ClusterStore routes every block across N child stores ("nodes"),
// each a registry-built backend rooted in its own directory and tagged
// with a failure-domain label ("node3", "eu-west", "rack-b2", …). The
// block→node map is cluster::place_block — the same pure function the
// disaster simulation uses — so the paper's placement results (§V-C,
// Fig 13) apply verbatim to the bytes on disk.
//
// Fault injection models a whole failure domain going dark:
//   fail_node(k)  — the node's child becomes unreachable: every routed
//                   read answers a miss, and the cluster announces each
//                   key the node held to the mutation observer as
//                   missing — an archive's health census therefore
//                   covers node loss with the existing O(damage) repair
//                   planning, no special-casing anywhere. Writes routed
//                   to a down node land in a volatile in-memory staging
//                   overlay (a degraded-mode write-back buffer): wave-
//                   parallel repair can regenerate a down node's blocks
//                   and later waves can read them back, but nothing is
//                   durable on the dead domain.
//   heal_node(k)  — transient outage over: the child (old data intact)
//                   is reachable again, every key it holds is
//                   re-announced, and the staged repairs move into it.
//   replace_node(k) — catastrophic loss: the node's directory is wiped
//                   and a fresh child backend is built in its place
//                   (the "replacement disk"); staged repairs move into
//                   it, everything else stays missing until a
//                   rebuild pass re-materializes it
//                   (Archive::rebuild_node drives that).
//
// Topology (node count, policy, seed, child spec, per-node domain
// labels and down flags) is pinned in <root>/cluster.txt at creation —
// like the sharded store's shards.txt — so reopening addresses the same
// layout regardless of the spec it was asked for, and fail/heal state
// survives across processes (aectool node fail / scrub / node rebuild
// are separate runs).
//
// Thread safety: thread_safe() is inherited from the children (all
// thread-safe children → routed operations may run concurrently; the
// per-node state is guarded by a shared_mutex that fail/heal/replace
// take exclusively, and the staging overlay is a ConcurrentBlockStore,
// which locks itself).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "core/codec/block_store.h"
#include "pipeline/concurrent_block_store.h"

namespace aec::cluster {

/// Per-node payload traffic since open (or the last reset_traffic()):
/// what a remote node would have shipped over the wire. Reads count only
/// blocks actually found; writes count staged bytes too (a repair write
/// destined for a down node still crosses the network to its staging
/// buffer). The Dimakis repair-bandwidth accounting diffs this around a
/// rebuild: survivors' read deltas ARE the repair traffic.
struct NodeTraffic {
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t bytes_written = 0;
};

class ClusterStore final : public BlockStore {
 public:
  static constexpr std::uint32_t kMinNodes = 2;
  static constexpr std::uint32_t kMaxNodes = 256;

  /// Opens (creating directories if needed) a cluster rooted at `root`
  /// with `n_nodes` children built from `child_spec` (any registered
  /// store family except "cluster"). An existing root keeps the
  /// topology it was created with (cluster.txt wins over the
  /// arguments).
  ClusterStore(std::filesystem::path root, std::uint32_t n_nodes,
               PlacementPolicy policy, std::string child_spec,
               std::uint64_t seed = 0);
  ~ClusterStore() override;

  // --- BlockStore -----------------------------------------------------------
  void put(const BlockKey& key, Bytes value) override;
  bool contains(const BlockKey& key) const override;
  bool erase(const BlockKey& key) override;
  std::uint64_t size() const override;
  std::optional<Bytes> get_copy(const BlockKey& key) const override;
  /// Batch ops group keys per node so a thread-safe child takes its
  /// locks once per wave, not once per block.
  std::vector<std::optional<Bytes>> get_batch(
      const std::vector<BlockKey>& keys) const override;
  void put_batch(std::vector<std::pair<BlockKey, Bytes>> items) override;
  bool thread_safe() const noexcept override { return children_safe_; }
  void flush() const override;
  bool for_each_key(
      const std::function<void(const BlockKey&)>& fn) const override;
  void rescan() override;
  /// Forwarded to every child (and staging overlay), so each mutation
  /// notifies exactly once from wherever it lands; cluster-level bulk
  /// announcements (fail/heal) use the same observer.
  void set_observer(Observer* observer) override;

  // --- topology -------------------------------------------------------------
  const std::filesystem::path& root() const noexcept { return root_; }
  std::uint32_t node_count() const noexcept;
  PlacementPolicy policy() const noexcept { return policy_; }
  std::uint64_t placement_seed() const noexcept { return seed_; }
  const std::string& child_spec() const noexcept { return child_spec_; }
  /// The node `key` is placed on — THE placement map, shared with sim.
  std::uint32_t node_of(const BlockKey& key) const noexcept;
  std::filesystem::path node_root(std::uint32_t node) const;
  /// Failure-domain label (default "node<k>"). Persisted in cluster.txt.
  std::string node_domain(std::uint32_t node) const;
  void set_node_domain(std::uint32_t node, const std::string& domain);

  // --- fault injection / rebuild --------------------------------------------
  bool node_down(std::uint32_t node) const;
  /// True while at least one node is down — the cluster is degraded:
  /// repair writes stage, but new ingest should be refused (staged
  /// bytes are volatile; Archive gates begin_file on this).
  bool any_node_down() const;
  /// Blocks currently reachable through the node (child when up, staging
  /// overlay when down).
  std::uint64_t node_blocks(std::uint32_t node) const;
  void fail_node(std::uint32_t node);
  void heal_node(std::uint32_t node);
  void replace_node(std::uint32_t node);

  // --- traffic accounting ---------------------------------------------------
  /// Payload traffic routed through one node since open/reset (relaxed
  /// atomic counters — exact once mutators quiesce).
  NodeTraffic node_traffic(std::uint32_t node) const;
  /// All nodes at once, indexed by node id.
  std::vector<NodeTraffic> traffic() const;
  void reset_traffic();

  /// key-string → FNV-1a payload fingerprint of every block the cluster
  /// currently serves, optionally restricted to one node — the content
  /// audit the rebuild bench and acceptance tests compare before and
  /// after a failure. Keys are collected first, then read back, so the
  /// store's own locks are never re-entered. Quiesce mutators for an
  /// exact snapshot.
  std::map<std::string, std::uint64_t> fingerprint(
      std::optional<std::uint32_t> node = std::nullopt) const;

 private:
  struct Node {
    std::filesystem::path dir;
    std::string domain;
    std::unique_ptr<BlockStore> child;
    /// Degraded-mode write staging; non-null exactly while down.
    std::unique_ptr<pipeline::ConcurrentBlockStore> staged;
    /// Exclusive: fail/heal/replace and domain edits. Shared: routed ops.
    mutable std::shared_mutex mu;
    /// Traffic tallies (NodeTraffic fields, relaxed atomics so routed
    /// ops never take an extra lock).
    std::atomic<std::uint64_t> blocks_read{0};
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> blocks_written{0};
    std::atomic<std::uint64_t> bytes_written{0};

    void count_read(std::uint64_t bytes) noexcept {
      blocks_read.fetch_add(1, std::memory_order_relaxed);
      bytes_read.fetch_add(bytes, std::memory_order_relaxed);
    }
    void count_write(std::uint64_t bytes) noexcept {
      blocks_written.fetch_add(1, std::memory_order_relaxed);
      bytes_written.fetch_add(bytes, std::memory_order_relaxed);
    }
  };

  Node& node_for(const BlockKey& key) const {
    return *nodes_[node_of(key)];
  }
  /// Where a node's routed operations land: the staging overlay while
  /// it is down, the child otherwise. Caller holds the node lock
  /// (shared is enough).
  static BlockStore& target(const Node& n) {
    if (n.staged) return *n.staged;
    return *n.child;
  }
  /// Writes cluster.txt (topology + down/domain state). Caller holds
  /// whatever node locks it needs; the file itself is guarded by
  /// state_file_mu_.
  void save_state() const;
  /// Moves the staging overlay's blocks into the child in one batch and
  /// drops the overlay. Caller holds the node's exclusive lock.
  void flush_staged(Node& n);

  std::filesystem::path root_;
  PlacementPolicy policy_;
  std::uint64_t seed_;
  std::string child_spec_;
  bool children_safe_ = false;
  std::vector<std::unique_ptr<Node>> nodes_;
  mutable std::mutex state_file_mu_;
};

}  // namespace aec::cluster
