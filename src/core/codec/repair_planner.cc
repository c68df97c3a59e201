#include "core/codec/repair_planner.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace aec {

namespace {

// Lazy availability view over a live store: presence is probed on first
// touch and memoized, plan-time repairs shadow the store. Gives the
// radius-scoped queries (plan_for_target, plan_node_repair) a cost
// proportional to the blocks actually examined instead of the lattice.
class LazyAvailability {
 public:
  explicit LazyAvailability(const BlockStore& store) : store_(&store) {}

  bool data_ok(NodeIndex i) const { return ok(BlockKey::data(i)); }
  bool parity_ok(Edge e) const { return ok(BlockKey::parity(e)); }
  bool ok(const BlockKey& key) const {
    const auto [it, inserted] = cache_.try_emplace(key, false);
    if (inserted) it->second = store_->contains(key);
    return it->second;
  }
  void set(const BlockKey& key, bool present) { cache_[key] = present; }

 private:
  const BlockStore* store_;
  mutable std::unordered_map<BlockKey, bool, BlockKeyHash> cache_;
};

// The repair rules (paper §III-A), written once against any availability
// view (Availability for global plans, LazyAvailability for scoped
// queries).

template <class Avail>
std::optional<RepairStep> node_step_impl(const Lattice& lat, NodeIndex i,
                                         const Avail& avail) {
  for (StrandClass cls : lat.params().classes()) {
    if (strand_intact(lat, i, cls, avail))
      return RepairStep{.key = BlockKey::data(i), .via = cls};
  }
  return std::nullopt;
}

template <class Avail>
std::optional<RepairStep> edge_step_impl(const Lattice& lat, Edge e,
                                         const Avail& avail) {
  // Tail side first: p_{i,j} = d_i XOR p_{h,i}.
  if (avail.data_ok(e.tail)) {
    const auto in = lat.input_edge(e.tail, e.cls);
    if (!in || avail.parity_ok(*in))
      return RepairStep{.key = BlockKey::parity(e), .via = e.cls};
  }
  // Head side: p_{i,j} = d_j XOR p_{j,k}.
  const NodeIndex j = lat.edge_head(e);
  if (lat.is_valid_node(j) && avail.data_ok(j) &&
      avail.parity_ok(lat.output_edge(j, e.cls)))
    return RepairStep{
        .key = BlockKey::parity(e), .via = e.cls, .from_head = true};
  return std::nullopt;
}

template <class Avail>
bool edge_adjacent_to_missing_data_impl(const Lattice& lat, Edge e,
                                        const Avail& avail) {
  if (!avail.data_ok(e.tail)) return true;
  const NodeIndex j = lat.edge_head(e);
  return lat.is_valid_node(j) && !avail.data_ok(j);
}

/// Shared wave loop over a shrinking missing set, run to its fixpoint.
/// `missing` is consumed; `stop_target` (valid node) truncates after the
/// wave repairing it.
template <class Avail>
RepairPlan plan_waves(const Lattice& lat, Avail& avail,
                      std::vector<BlockKey> missing, RepairPolicy policy,
                      NodeIndex stop_target) {
  RepairPlan plan;

  // `later` is a persistent buffer swapped with `missing` each round —
  // no per-round reallocation (the wave vector itself is plan output,
  // so moving it out is not churn).
  std::vector<BlockKey> later;
  later.reserve(missing.size());
  while (!missing.empty()) {
    // Decide against availability at wave start: steps are chosen before
    // any of this wave's blocks is marked available.
    std::vector<RepairStep> wave;
    later.clear();
    for (const BlockKey& key : missing) {
      std::optional<RepairStep> step;
      if (key.is_data()) {
        step = node_step_impl(lat, key.index, avail);
      } else if (policy == RepairPolicy::kFull ||
                 edge_adjacent_to_missing_data_impl(lat, key.edge(),
                                                    avail)) {
        step = edge_step_impl(lat, key.edge(), avail);
      }
      if (step)
        wave.push_back(*step);
      else
        later.push_back(key);
    }
    if (wave.empty()) break;  // fixpoint

    bool hit_target = false;
    for (const RepairStep& step : wave) {
      avail.set(step.key, true);
      if (step.key.is_data()) {
        ++plan.nodes_planned;
        if (step.key.index == stop_target) hit_target = true;
      } else {
        ++plan.edges_planned;
      }
    }
    plan.waves.push_back(std::move(wave));
    missing.swap(later);
    if (hit_target) break;
  }

  plan.residue = std::move(missing);
  return plan;
}

}  // namespace

RepairReport report_from_plan(const RepairPlan& plan) {
  RepairReport report;
  report.rounds = plan.rounds();
  report.nodes_repaired_per_round.reserve(plan.waves.size());
  report.edges_repaired_per_round.reserve(plan.waves.size());
  for (const std::vector<RepairStep>& wave : plan.waves) {
    std::uint64_t nodes = 0;
    for (const RepairStep& step : wave)
      if (step.key.is_data()) ++nodes;
    report.nodes_repaired_per_round.push_back(nodes);
    report.edges_repaired_per_round.push_back(wave.size() - nodes);
  }
  report.nodes_repaired_total = plan.nodes_planned;
  report.edges_repaired_total = plan.edges_planned;
  for (const BlockKey& key : plan.residue) {
    if (key.is_data())
      ++report.nodes_unrecovered;
    else
      ++report.edges_unrecovered;
  }
  return report;
}

RepairPlanner::RepairPlanner(const Lattice* lattice) : lattice_(lattice) {
  AEC_CHECK_MSG(lattice_ != nullptr, "planner needs a lattice");
}

Availability RepairPlanner::snapshot(const BlockStore& store) const {
  Availability avail(lattice_->params(), lattice_->n_nodes());
  const auto n = static_cast<NodeIndex>(lattice_->n_nodes());
  for (NodeIndex i = 1; i <= n; ++i) {
    const BlockKey dk = BlockKey::data(i);
    if (!store.contains(dk)) avail.set(dk, false);
    for (StrandClass cls : lattice_->params().classes()) {
      const BlockKey pk = BlockKey::parity(lattice_->output_edge(i, cls));
      if (!store.contains(pk)) avail.set(pk, false);
    }
  }
  return avail;
}

bool RepairPlanner::node_repairable(NodeIndex i,
                                    const Availability& avail) const {
  return node_step_impl(*lattice_, i, avail).has_value();
}

RepairPlan RepairPlanner::plan(Availability& avail,
                               RepairPolicy policy) const {
  AEC_CHECK_MSG(avail.n_nodes() == lattice_->n_nodes(),
                "plan: availability covers " << avail.n_nodes()
                                             << " nodes, lattice has "
                                             << lattice_->n_nodes());
  return plan_waves(*lattice_, avail, avail.missing_keys(), policy, 0);
}

std::optional<RepairStep> RepairPlanner::plan_node_repair(
    const BlockStore& store, NodeIndex i) const {
  const LazyAvailability avail(store);
  return node_step_impl(*lattice_, i, avail);
}

std::optional<RepairPlan> RepairPlanner::plan_for_target(
    const BlockStore& store, NodeIndex target) const {
  AEC_CHECK_MSG(lattice_->is_valid_node(target),
                "plan_for_target: invalid node " << target);
  if (store.contains(BlockKey::data(target))) return RepairPlan{};

  const std::uint64_t n = lattice_->n_nodes();
  const std::uint64_t all_blocks = n * (1 + lattice_->params().alpha());
  const auto max_radius = static_cast<std::uint32_t>(2 * n + 4);
  for (std::uint32_t radius = 2; radius <= max_radius; radius *= 2) {
    // BFS over the block-incidence graph, nodes and edges alternating;
    // `scope` keeps insertion order for deterministic planning.
    std::unordered_set<BlockKey, BlockKeyHash> seen;
    std::vector<BlockKey> scope{BlockKey::data(target)};
    seen.insert(scope.front());
    std::vector<BlockKey> frontier = scope;
    for (std::uint32_t depth = 0; depth < radius && !frontier.empty();
         ++depth) {
      std::vector<BlockKey> next;
      for (const BlockKey& key : frontier) {
        std::vector<BlockKey> neighbours;
        if (key.is_data()) {
          for (const Edge& e : lattice_->incident_edges(key.index))
            neighbours.push_back(BlockKey::parity(e));
        } else {
          const Edge e = key.edge();
          neighbours.push_back(BlockKey::data(e.tail));
          const NodeIndex head = lattice_->edge_head(e);
          if (lattice_->is_valid_node(head))
            neighbours.push_back(BlockKey::data(head));
        }
        for (const BlockKey& nb : neighbours) {
          if (seen.insert(nb).second) {
            scope.push_back(nb);
            next.push_back(nb);
          }
        }
      }
      frontier = std::move(next);
    }

    LazyAvailability avail(store);
    std::vector<BlockKey> missing;
    for (const BlockKey& key : scope)
      if (!avail.ok(key)) missing.push_back(key);
    RepairPlan plan = plan_waves(*lattice_, avail, std::move(missing),
                                 RepairPolicy::kFull, target);
    if (avail.data_ok(target)) return plan;
    if (scope.size() >= all_blocks) break;  // whole lattice in scope
  }
  return std::nullopt;
}

RepairReport execute_repair_plan(
    const RepairPlanner& planner, const BlockStore& store,
    std::optional<std::vector<BlockKey>> missing,
    const std::function<void(const std::vector<RepairStep>&)>& run_wave) {
  const auto start = std::chrono::steady_clock::now();
  Availability avail = missing ? Availability(planner.lattice().params(),
                                             planner.lattice().n_nodes())
                               : planner.snapshot(store);
  if (missing)
    for (const BlockKey& key : *missing)
      if (avail.covers(key)) avail.set(key, false);
  const RepairPlan plan = planner.plan(avail);
  for (const std::vector<RepairStep>& wave : plan.waves) run_wave(wave);
  RepairReport report = report_from_plan(plan);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

RepairStepInputs repair_step_inputs(const Lattice& lattice,
                                    const RepairStep& step) {
  if (step.key.is_data()) {
    // d_i = p_{h,i} XOR p_{i,j} on the planned strand.
    const auto in = lattice.input_edge(step.key.index, step.via);
    return RepairStepInputs{
        .input = in ? std::optional(BlockKey::parity(*in)) : std::nullopt,
        .other = BlockKey::parity(
            lattice.output_edge(step.key.index, step.via))};
  }
  const Edge e = step.key.edge();
  if (!step.from_head) {
    // p_{i,j} = d_i XOR p_{h,i}.
    const auto in = lattice.input_edge(e.tail, e.cls);
    return RepairStepInputs{
        .input = in ? std::optional(BlockKey::parity(*in)) : std::nullopt,
        .other = BlockKey::data(e.tail)};
  }
  // p_{i,j} = d_j XOR p_{j,k}.
  const NodeIndex j = lattice.edge_head(e);
  return RepairStepInputs{
      .input = BlockKey::data(j),
      .other = BlockKey::parity(lattice.output_edge(j, e.cls))};
}

}  // namespace aec
