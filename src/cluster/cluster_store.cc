#include "cluster/cluster_store.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/codec/store_registry.h"
#include "core/util/tagged_file.h"

namespace aec::cluster {

namespace fs = std::filesystem;

namespace {

constexpr const char* kStateFile = "cluster.txt";

struct PinnedState {
  std::uint32_t n_nodes = 0;
  PlacementPolicy policy = PlacementPolicy::kRandom;
  std::uint64_t seed = 0;
  std::string child_spec;
  std::vector<std::string> domains;
  std::vector<bool> down;
};

/// Parses cluster.txt. Structural defects are CheckErrors here, not
/// mysterious downstream routing bugs.
PinnedState load_state(const fs::path& path) {
  std::ifstream in(path);
  AEC_CHECK_MSG(in.good(), "cannot read " << path.string());
  util::TaggedReader reader(in, "cluster state");
  AEC_CHECK_MSG(reader.header() == "aec-cluster v1",
                "unknown cluster state header '" << reader.header() << "' in "
                                                 << path.string());
  PinnedState state;
  util::TaggedRow row;
  while (reader.next(row)) {
    if (row.tag() == "nodes") {
      row >> state.n_nodes;
    } else if (row.tag() == "policy") {
      std::string name;
      row >> name;
      if (row.ok()) state.policy = parse_placement_policy(name);
    } else if (row.tag() == "seed") {
      row >> state.seed;
    } else if (row.tag() == "child") {
      row >> state.child_spec;
    } else if (row.tag() == "node") {
      std::uint32_t id = 0;
      std::string status;
      std::string domain;
      row >> id >> status >> domain;
      AEC_CHECK_MSG(row.ok() && id == state.domains.size() &&
                        (status == "up" || status == "down"),
                    "cluster state: malformed node line '" << row.line()
                                                           << "'");
      state.domains.push_back(std::move(domain));
      state.down.push_back(status == "down");
    } else if (row.tag() == "end") {
      reader.mark_end();
    } else {
      AEC_CHECK_MSG(false,
                    "cluster state: unknown tag '" << row.tag() << "'");
    }
  }
  AEC_CHECK_MSG(reader.saw_end(),
                "cluster state: missing end marker (truncated)");
  AEC_CHECK_MSG(state.n_nodes >= ClusterStore::kMinNodes &&
                    state.n_nodes <= ClusterStore::kMaxNodes &&
                    state.domains.size() == state.n_nodes &&
                    !state.child_spec.empty(),
                "cluster state: inconsistent topology in " << path.string());
  return state;
}

}  // namespace

ClusterStore::ClusterStore(fs::path root, std::uint32_t n_nodes,
                           PlacementPolicy policy, std::string child_spec,
                           std::uint64_t seed)
    : root_(std::move(root)),
      policy_(policy),
      seed_(seed),
      child_spec_(std::move(child_spec)) {
  AEC_CHECK_MSG(n_nodes >= kMinNodes && n_nodes <= kMaxNodes,
                "cluster wants " << kMinNodes << ".." << kMaxNodes
                                 << " nodes, got " << n_nodes);
  fs::create_directories(root_);

  std::vector<std::string> domains;
  std::vector<bool> down;
  const bool existing = fs::exists(root_ / kStateFile);
  if (existing) {
    // An existing root keeps the topology it was created with.
    PinnedState pinned = load_state(root_ / kStateFile);
    n_nodes = pinned.n_nodes;
    policy_ = pinned.policy;
    seed_ = pinned.seed;
    child_spec_ = std::move(pinned.child_spec);
    domains = std::move(pinned.domains);
    down = std::move(pinned.down);
  } else {
    for (std::uint32_t k = 0; k < n_nodes; ++k)
      domains.push_back("node" + std::to_string(k));
    down.assign(n_nodes, false);
  }
  // Validate the child spec AFTER pinned adoption, so a hand-edited
  // cluster.txt cannot smuggle in what creation rejects.
  AEC_CHECK_MSG(parse_store_spec(child_spec_).family != "cluster",
                "cluster children cannot themselves be clusters");

  children_safe_ = true;
  nodes_.reserve(n_nodes);
  for (std::uint32_t k = 0; k < n_nodes; ++k) {
    auto n = std::make_unique<Node>();
    n->dir = root_ / ("node" + std::to_string(k));
    n->domain = std::move(domains[k]);
    n->child = make_store(child_spec_, n->dir);
    if (down[k])
      n->staged = std::make_unique<pipeline::ConcurrentBlockStore>();
    children_safe_ = children_safe_ && n->child->thread_safe();
    nodes_.push_back(std::move(n));
  }
  // Pin the topology only at creation: opening is read-only, so a
  // concurrent fail/heal in another process cannot be clobbered by a
  // stale rewrite (and stat/get-style commands never dirty the root).
  if (!existing) save_state();
}

ClusterStore::~ClusterStore() = default;

std::uint32_t ClusterStore::node_count() const noexcept {
  return static_cast<std::uint32_t>(nodes_.size());
}

std::uint32_t ClusterStore::node_of(const BlockKey& key) const noexcept {
  return place_block(key, node_count(), policy_, seed_);
}

fs::path ClusterStore::node_root(std::uint32_t node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  return nodes_[node]->dir;
}

std::string ClusterStore::node_domain(std::uint32_t node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  std::shared_lock lock(nodes_[node]->mu);
  return nodes_[node]->domain;
}

void ClusterStore::set_node_domain(std::uint32_t node,
                                   const std::string& domain) {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  AEC_CHECK_MSG(!domain.empty() &&
                    domain.find_first_of(" \t\n\r") == std::string::npos,
                "domain label must be non-empty without whitespace, got '"
                    << domain << "'");
  {
    std::unique_lock lock(nodes_[node]->mu);
    nodes_[node]->domain = domain;
  }
  save_state();
}

void ClusterStore::save_state() const {
  std::lock_guard file_lock(state_file_mu_);
  util::TaggedWriter out("aec-cluster v1");
  out.row("nodes", nodes_.size());
  out.row("policy", to_string(policy_));
  out.row("seed", seed_);
  out.row("child", child_spec_);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    // Callers release their node's exclusive lock before saving, so
    // every row needs its own shared lock: a concurrent fail/heal or
    // domain edit on another node must not be read mid-write.
    std::shared_lock node_lock(nodes_[k]->mu);
    out.row("node", k, nodes_[k]->staged ? "down" : "up",
            nodes_[k]->domain);
  }
  out.row("end");
  out.write_atomic(root_ / kStateFile);
}

// --- routed BlockStore operations -------------------------------------------

void ClusterStore::put_block(const BlockKey& key, Block value) {
  Node& n = node_for(key);
  n.count_write(value.size());
  std::shared_lock lock(n.mu);
  target(n).put_block(key, std::move(value));
}

bool ClusterStore::contains(const BlockKey& key) const {
  Node& n = node_for(key);
  std::shared_lock lock(n.mu);
  return target(n).contains(key);
}

bool ClusterStore::erase(const BlockKey& key) {
  Node& n = node_for(key);
  std::shared_lock lock(n.mu);
  return target(n).erase(key);
}

std::uint64_t ClusterStore::size() const {
  std::uint64_t total = 0;
  for (const auto& node_ptr : nodes_) {
    std::shared_lock lock(node_ptr->mu);
    total += target(*node_ptr).size();
  }
  return total;
}

std::vector<Block> ClusterStore::get_blocks(
    const std::vector<BlockKey>& keys) const {
  std::vector<Block> payloads(keys.size());
  // Group the request positions per node, then take each node once.
  std::vector<std::vector<std::size_t>> by_node(nodes_.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    by_node[node_of(keys[i])].push_back(i);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    if (by_node[k].empty()) continue;
    Node& n = *nodes_[k];
    std::vector<BlockKey> sub;
    sub.reserve(by_node[k].size());
    for (const std::size_t i : by_node[k]) sub.push_back(keys[i]);
    std::shared_lock lock(n.mu);
    std::vector<Block> got = target(n).get_blocks(sub);
    for (std::size_t j = 0; j < by_node[k].size(); ++j) {
      if (got[j]) n.count_read(got[j].size());
      payloads[by_node[k][j]] = std::move(got[j]);
    }
  }
  return payloads;
}

void ClusterStore::put_blocks(std::vector<std::pair<BlockKey, Block>> items) {
  std::vector<std::vector<std::pair<BlockKey, Block>>> by_node(
      nodes_.size());
  for (auto& item : items)
    by_node[node_of(item.first)].push_back(std::move(item));
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    if (by_node[k].empty()) continue;
    Node& n = *nodes_[k];
    for (const auto& [key, value] : by_node[k]) n.count_write(value.size());
    std::shared_lock lock(n.mu);
    target(n).put_blocks(std::move(by_node[k]));
  }
}

void ClusterStore::flush() const {
  for (const auto& node_ptr : nodes_) {
    std::shared_lock lock(node_ptr->mu);
    target(*node_ptr).flush();
  }
}

bool ClusterStore::for_each_key(
    const std::function<void(const BlockKey&)>& fn) const {
  // Capability probe before the real pass: the base contract is
  // all-or-nothing ("returns false without calling fn"), so a
  // non-enumerable child must be discovered before any earlier node's
  // keys are announced. The probe is one extra in-memory index walk.
  for (const auto& node_ptr : nodes_) {
    std::shared_lock lock(node_ptr->mu);
    if (!target(*node_ptr).for_each_key([](const BlockKey&) {}))
      return false;
  }
  for (const auto& node_ptr : nodes_) {
    std::shared_lock lock(node_ptr->mu);
    if (!target(*node_ptr).for_each_key(fn)) return false;  // raced fail/heal
  }
  return true;
}

void ClusterStore::rescan() {
  for (const auto& node_ptr : nodes_) {
    Node& n = *node_ptr;
    std::unique_lock lock(n.mu);
    n.child->rescan();
  }
}

void ClusterStore::set_observer(Observer* observer) {
  BlockStore::set_observer(observer);  // cluster-level bulk announcements
  for (const auto& node_ptr : nodes_) {
    Node& n = *node_ptr;
    std::unique_lock lock(n.mu);
    n.child->set_observer(observer);
    if (n.staged) n.staged->set_observer(observer);
  }
}

// --- fault injection / rebuild ----------------------------------------------

bool ClusterStore::node_down(std::uint32_t node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  std::shared_lock lock(nodes_[node]->mu);
  return nodes_[node]->staged != nullptr;
}

bool ClusterStore::any_node_down() const {
  for (const auto& node_ptr : nodes_) {
    std::shared_lock lock(node_ptr->mu);
    if (node_ptr->staged) return true;
  }
  return false;
}

NodeTraffic ClusterStore::node_traffic(std::uint32_t node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  const Node& n = *nodes_[node];
  NodeTraffic t;
  t.blocks_read = n.blocks_read.load(std::memory_order_relaxed);
  t.bytes_read = n.bytes_read.load(std::memory_order_relaxed);
  t.blocks_written = n.blocks_written.load(std::memory_order_relaxed);
  t.bytes_written = n.bytes_written.load(std::memory_order_relaxed);
  return t;
}

std::vector<NodeTraffic> ClusterStore::traffic() const {
  std::vector<NodeTraffic> all;
  all.reserve(nodes_.size());
  for (std::uint32_t k = 0; k < nodes_.size(); ++k)
    all.push_back(node_traffic(k));
  return all;
}

void ClusterStore::reset_traffic() {
  for (const auto& node_ptr : nodes_) {
    node_ptr->blocks_read.store(0, std::memory_order_relaxed);
    node_ptr->bytes_read.store(0, std::memory_order_relaxed);
    node_ptr->blocks_written.store(0, std::memory_order_relaxed);
    node_ptr->bytes_written.store(0, std::memory_order_relaxed);
  }
}

std::map<std::string, std::uint64_t> ClusterStore::fingerprint(
    std::optional<std::uint32_t> node) const {
  std::vector<BlockKey> keys;
  // An un-enumerable child would make the audit vacuously empty — an
  // empty-vs-empty comparison that passes any check. Refuse instead,
  // like fail_node/heal_node do.
  AEC_CHECK_MSG(for_each_key([&](const BlockKey& key) {
                  if (!node || node_of(key) == *node) keys.push_back(key);
                }),
                "fingerprint: child store '"
                    << child_spec_ << "' cannot enumerate keys");
  std::map<std::string, std::uint64_t> prints;
  for (const BlockKey& key : keys)
    if (const Block payload = get_block(key))
      prints[aec::to_string(key)] = fnv1a64(payload);
  return prints;
}

std::uint64_t ClusterStore::node_blocks(std::uint32_t node) const {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  std::shared_lock lock(nodes_[node]->mu);
  return target(*nodes_[node]).size();
}

void ClusterStore::fail_node(std::uint32_t node) {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  Node& n = *nodes_[node];
  {
    std::unique_lock lock(n.mu);
    AEC_CHECK_MSG(!n.staged, "node " << node << " is already down");
    // A child that cannot enumerate its keys would leave an observing
    // census silently stale — refuse, BEFORE any state changes, rather
    // than misreport (every built-in backend supports enumeration; the
    // no-op probe is an in-memory index walk).
    AEC_CHECK_MSG(n.child->for_each_key([](const BlockKey&) {}),
                  "fail_node: child store '"
                      << child_spec_
                      << "' cannot enumerate keys; availability cannot "
                         "be tracked across a node failure");
    n.staged = std::make_unique<pipeline::ConcurrentBlockStore>();
    n.staged->set_observer(observer());
    // Announce the whole failure domain as missing: an observing health
    // census now plans node loss like any other damage.
    n.child->for_each_key([&](const BlockKey& key) { notify(key, false); });
  }
  save_state();
}

void ClusterStore::heal_node(std::uint32_t node) {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  Node& n = *nodes_[node];
  {
    std::unique_lock lock(n.mu);
    AEC_CHECK_MSG(n.staged, "node " << node << " is not down");
    // Same capability gate as fail_node, before any state changes: a
    // cluster can be reopened already-down, so this process may never
    // have run fail_node's probe.
    AEC_CHECK_MSG(n.child->for_each_key([](const BlockKey&) {}),
                  "heal_node: child store '"
                      << child_spec_
                      << "' cannot enumerate keys; availability cannot "
                         "be restored after an outage");
    // The old contents are reachable again; then the repairs staged
    // during the outage move into the child, each announced by its put
    // (a write-behind child lands them later; Archive::heal_node
    // flushes).
    n.child->for_each_key([&](const BlockKey& key) { notify(key, true); });
    flush_staged(n);
  }
  save_state();
}

void ClusterStore::replace_node(std::uint32_t node) {
  AEC_CHECK_MSG(node < nodes_.size(), "no node " << node);
  Node& n = *nodes_[node];
  {
    std::unique_lock lock(n.mu);
    AEC_CHECK_MSG(n.staged, "node " << node
                                    << " is up; fail it before replacing");
    n.child.reset();
    std::error_code ec;
    fs::remove_all(n.dir, ec);
    AEC_CHECK_MSG(!ec, "cannot wipe node root " << n.dir.string() << ": "
                                                << ec.message());
    n.child = make_store(child_spec_, n.dir);
    n.child->set_observer(observer());
    flush_staged(n);
    // Every key not staged stays missing (per the health census)
    // until a rebuild pass re-materializes it.
  }
  save_state();
}

void ClusterStore::flush_staged(Node& n) {
  // The staged Blocks move into the child, which announces each key
  // present once; the staging overlay itself sends nothing.
  n.child->put_blocks(n.staged->take_all());
  n.staged.reset();
}

}  // namespace aec::cluster
