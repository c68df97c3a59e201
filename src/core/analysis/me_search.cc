#include "core/analysis/me_search.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/check.h"
#include "core/codec/block_key.h"
#include "core/codec/repair_planner.h"

namespace aec {

namespace {

constexpr std::uint64_t kInfinite = std::numeric_limits<std::uint64_t>::max();

/// Key of a strand instance: class + id.
struct StrandKey {
  StrandClass cls;
  std::uint32_t id;
  friend auto operator<=>(const StrandKey&, const StrandKey&) = default;
};

/// Walks `cls` forward from `from` until reaching `to`; returns the edge
/// count, or nullopt if `to` is not hit within `to - from` steps (strand
/// indices advance by at least one per step, so this bound is exact).
std::optional<std::uint64_t> strand_distance(const Lattice& lat,
                                             NodeIndex from, NodeIndex to,
                                             StrandClass cls) {
  std::uint64_t steps = 0;
  NodeIndex cursor = from;
  while (cursor < to) {
    cursor = lat.output_index_raw(cursor, cls);
    ++steps;
  }
  if (cursor != to) return std::nullopt;
  return steps;
}

/// Edges of the run from `from` (exclusive of `to`) along `cls`.
std::vector<Edge> run_edges(const Lattice& lat, NodeIndex from, NodeIndex to,
                            StrandClass cls) {
  std::vector<Edge> edges;
  NodeIndex cursor = from;
  while (cursor < to) {
    edges.push_back(Edge{cls, cursor});
    cursor = lat.output_index_raw(cursor, cls);
  }
  AEC_CHECK_MSG(cursor == to, "run_edges: endpoints not on one strand");
  return edges;
}

/// Minimum-cost subset of the k−1 gaps between strand-consecutive nodes
/// such that each of the k nodes is adjacent to a chosen gap. Costs are
/// per-gap; k ≤ 8 so the 2^(k−1) enumeration is exact and cheap. Returns
/// (cost, chosen-gap bitmask) or nullopt if k < 2.
std::optional<std::pair<std::uint64_t, std::uint32_t>> min_gap_cover(
    const std::vector<std::uint64_t>& gap_costs) {
  const std::size_t gaps = gap_costs.size();
  if (gaps == 0) return std::nullopt;  // a lone node cannot be blocked
  std::uint64_t best = kInfinite;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 1; mask < (1u << gaps); ++mask) {
    // Node j (0-based, of k = gaps+1 nodes) is covered iff gap j−1 or j
    // is chosen.
    bool covered = true;
    for (std::size_t node = 0; node <= gaps; ++node) {
      const bool left = node > 0 && (mask >> (node - 1)) & 1u;
      const bool right = node < gaps && (mask >> node) & 1u;
      if (!left && !right) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    std::uint64_t cost = 0;
    for (std::size_t g = 0; g < gaps; ++g)
      if ((mask >> g) & 1u) cost += gap_costs[g];
    if (cost < best) {
      best = cost;
      best_mask = mask;
    }
  }
  if (best == kInfinite) return std::nullopt;
  return std::make_pair(best, best_mask);
}

/// Evaluates a candidate erased-node set: returns the full pattern (with
/// minimal dead runs) or nullopt if some node's strand cannot be blocked.
std::optional<ErasurePattern> evaluate_node_set(
    const Lattice& lat, const std::vector<NodeIndex>& nodes) {
  // Group the nodes per strand instance they belong to.
  std::map<StrandKey, std::vector<NodeIndex>> groups;
  for (NodeIndex node : nodes)
    for (StrandClass cls : lat.params().classes())
      groups[StrandKey{cls, lat.strand_id(node, cls)}].push_back(node);

  // Every node needs a partner on each of its α strands.
  for (NodeIndex node : nodes) {
    for (StrandClass cls : lat.params().classes()) {
      const auto& members = groups[StrandKey{cls, lat.strand_id(node, cls)}];
      if (members.size() < 2) return std::nullopt;
    }
  }

  ErasurePattern pattern;
  pattern.nodes = nodes;
  for (auto& [key, members] : groups) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    if (members.size() < 2) continue;  // handled above per node
    std::vector<std::uint64_t> gap_costs;
    gap_costs.reserve(members.size() - 1);
    for (std::size_t j = 0; j + 1 < members.size(); ++j) {
      auto d = strand_distance(lat, members[j], members[j + 1], key.cls);
      if (!d) return std::nullopt;  // same id but different rail: impossible
      gap_costs.push_back(*d);
    }
    const auto cover = min_gap_cover(gap_costs);
    if (!cover) return std::nullopt;
    for (std::size_t g = 0; g < gap_costs.size(); ++g) {
      if ((cover->second >> g) & 1u) {
        auto edges = run_edges(lat, members[g], members[g + 1], key.cls);
        pattern.edges.insert(pattern.edges.end(), edges.begin(),
                             edges.end());
      }
    }
  }
  // Duplicate runs cannot occur (strand instances are disjoint edge sets).
  return pattern;
}

}  // namespace

MinimalErasureSearch::MinimalErasureSearch(CodeParams params)
    : params_(std::move(params)) {
  const std::int64_t sp = params_.alpha() == 1
                              ? 1
                              : static_cast<std::int64_t>(params_.s()) *
                                    params_.p();
  window_ = std::max<std::int64_t>(2 * sp + 2 * params_.s() + 2, 16);
  base_ = 4 * sp + 2 * window_ + 64;  // deep interior: no boundary effects
}

std::uint64_t MinimalErasureSearch::me2_closed_form(
    const CodeParams& params) {
  if (params.alpha() == 1) return 3;
  return 2 + params.p() +
         static_cast<std::uint64_t>(params.alpha() - 1) * params.s();
}

std::optional<ErasurePattern> MinimalErasureSearch::find_minimal_erasure(
    std::uint32_t x) const {
  AEC_CHECK_MSG(x >= 1 && x <= 8, "ME(x) search supports x in [1,8]");
  if (x == 1) return std::nullopt;  // single nodes are always repairable

  // Virtual open lattice big enough that all candidate indices are
  // interior (the search never materializes blocks).
  const Lattice lat(params_,
                    static_cast<std::uint64_t>(base_ + 4 * window_ + 64),
                    Lattice::Boundary::kOpen);

  std::optional<ErasurePattern> best;
  std::vector<NodeIndex> nodes(x);

  // Anchor the first node at every row (rules depend on the row); the
  // rest of the pattern lives within `window_` of the anchor.
  for (std::uint32_t r0 = 0; r0 < params_.s(); ++r0) {
    const NodeIndex anchor = base_ + r0;
    nodes[0] = anchor;

    // Enumerate increasing offset combinations o_1 < … < o_{x−1}.
    std::vector<std::int64_t> offsets(x - 1);
    const std::uint32_t picks = x - 1;
    // Iterative combination enumeration over [1, window_].
    for (std::uint32_t j = 0; j < picks; ++j)
      offsets[j] = static_cast<std::int64_t>(j) + 1;
    while (true) {
      for (std::uint32_t j = 0; j < picks; ++j)
        nodes[j + 1] = anchor + offsets[j];
      if (auto pattern = evaluate_node_set(lat, nodes)) {
        if (!best || pattern->size() < best->size()) best = *pattern;
      }
      // Advance the combination.
      std::int64_t pos = static_cast<std::int64_t>(picks) - 1;
      while (pos >= 0 &&
             offsets[static_cast<std::size_t>(pos)] ==
                 window_ - (static_cast<std::int64_t>(picks) - 1 - pos))
        --pos;
      if (pos < 0) break;
      ++offsets[static_cast<std::size_t>(pos)];
      for (std::size_t j = static_cast<std::size_t>(pos) + 1; j < picks; ++j)
        offsets[j] = offsets[j - 1] + 1;
    }
    if (picks == 0) break;  // x == 1 handled above; defensive
  }
  return best;
}

std::optional<std::uint64_t> MinimalErasureSearch::me_size(
    std::uint32_t x) const {
  auto pattern = find_minimal_erasure(x);
  if (!pattern) return std::nullopt;
  return pattern->size();
}

std::map<std::uint64_t, std::uint64_t> MinimalErasureSearch::pattern_profile(
    std::uint32_t x, std::uint64_t max_size) const {
  AEC_CHECK_MSG(x == 2, "pattern_profile implemented for x = 2 (each valid "
                        "node pair induces exactly one minimal erasure)");
  AEC_CHECK_MSG(max_size >= 3, "max_size below the smallest pattern");

  // All nodes are equivalent for ME(2) (partners sit at whole-wrap
  // offsets), so anchor once and enumerate partners until the pattern
  // size exceeds max_size. Window sized from the per-wrap size growth.
  const std::int64_t sp =
      params_.alpha() == 1
          ? 1
          : static_cast<std::int64_t>(params_.s()) * params_.p();
  const std::int64_t reach =
      static_cast<std::int64_t>(max_size) * sp + sp + 2;
  const Lattice lat(params_,
                    static_cast<std::uint64_t>(base_ + reach + 4 * sp + 64),
                    Lattice::Boundary::kOpen);

  std::map<std::uint64_t, std::uint64_t> profile;
  std::vector<NodeIndex> nodes(2);
  nodes[0] = base_;
  for (std::int64_t offset = 1; offset <= reach; ++offset) {
    nodes[1] = base_ + offset;
    const auto pattern = evaluate_node_set(lat, nodes);
    if (!pattern) continue;
    if (pattern->size() <= max_size) ++profile[pattern->size()];
  }
  return profile;
}

bool verify_minimal_erasure(const CodeParams& params,
                            const ErasurePattern& pattern) {
  if (pattern.nodes.empty()) return false;

  // Mark the pattern missing on a lattice covering it plus margin, and
  // check the two minimal-erasure properties against the planner's
  // fixpoint. Pattern blocks outside the lattice's key set are never
  // stored, so they cannot be missing either.
  NodeIndex max_index = 0;
  for (NodeIndex n : pattern.nodes) max_index = std::max(max_index, n);
  for (const Edge& e : pattern.edges) max_index = std::max(max_index, e.tail);
  const std::int64_t margin =
      params.alpha() == 1
          ? 8
          : 2 * static_cast<std::int64_t>(params.s()) * params.p() + 8;
  const auto n_nodes = static_cast<std::uint64_t>(max_index + margin);
  const Lattice lattice(params, n_nodes, Lattice::Boundary::kOpen);
  const RepairPlanner planner(&lattice);

  // Blocks the fixpoint repairs once `erased` is missing.
  auto repaired = [&](const ErasurePattern& erased) {
    Availability avail(params, n_nodes);
    const auto mark_missing = [&](const BlockKey& key) {
      if (avail.covers(key)) avail.set(key, false);
    };
    for (NodeIndex node : erased.nodes) mark_missing(BlockKey::data(node));
    for (const Edge& e : erased.edges) mark_missing(BlockKey::parity(e));
    const RepairPlan plan = planner.plan(avail);
    return plan.nodes_planned + plan.edges_planned;
  };

  // (a) Nothing in the pattern is recoverable.
  if (repaired(pattern) != 0) return false;

  // (b) Irreducible: dropping any single block unlocks some repair.
  const std::size_t total =
      pattern.nodes.size() + pattern.edges.size();
  for (std::size_t skip = 0; skip < total; ++skip) {
    ErasurePattern reduced;
    for (std::size_t j = 0; j < pattern.nodes.size(); ++j)
      if (j != skip) reduced.nodes.push_back(pattern.nodes[j]);
    for (std::size_t j = 0; j < pattern.edges.size(); ++j)
      if (j + pattern.nodes.size() != skip)
        reduced.edges.push_back(pattern.edges[j]);
    if (repaired(reduced) == 0) return false;
  }
  return true;
}

}  // namespace aec
