// The helical lattice (paper §III-B, Fig 4, rules Tables I and II).
//
// Nodes are data blocks d_i (1-based position i); edges are parity blocks
// p_{i,j}. Every node belongs to α strands and owns exactly one *output*
// edge per strand class, so an edge is uniquely identified by
// (class, tail node): Edge{cls, i} is the parity p_{i, j} created when d_i
// was entangled on that strand.
//
// Geometry (s > 1): row r = (i−1) mod s + 1, column c = ceil(i/s).
// Strand ids: H = (i−1) mod s; RH = (c − r) mod p; LH = (c + r) mod p —
// both helical ids are invariants of the Table I/II walking rules.
//
// Boundary:
//   kOpen   — the growing lattice of the streaming encoder. Early nodes
//             have no input parity (h ≤ 0): strands bootstrap with the
//             all-zero block. Late edges may dangle (head > n_nodes).
//   kClosed — node arithmetic wraps mod n_nodes (which must be a multiple
//             of s·p for α ≥ 2, of 1 otherwise). Used by availability
//             simulations to avoid extremity artifacts. Closed lattices
//             cannot be *byte*-encoded (the XOR recurrence around a cycle
//             over-constrains parity values); they model topology only.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"
#include "core/lattice/code_params.h"

namespace aec {

/// 1-based position of a data block in the lattice.
using NodeIndex = std::int64_t;

/// A parity block, identified by strand class and tail node.
struct Edge {
  StrandClass cls{StrandClass::kHorizontal};
  NodeIndex tail{0};

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct EdgeHash {
  std::size_t operator()(const Edge& e) const noexcept {
    return static_cast<std::size_t>(e.tail) * 31u +
           static_cast<std::size_t>(e.cls);
  }
};

class Lattice {
 public:
  enum class Boundary { kOpen, kClosed };

  /// n_nodes: number of data blocks present (nodes 1..n_nodes).
  /// For kClosed lattices with α ≥ 2, n_nodes must be a positive multiple
  /// of s·p; for AE(1) any n_nodes ≥ 3.
  Lattice(CodeParams params, std::uint64_t n_nodes, Boundary boundary);

  const CodeParams& params() const noexcept { return params_; }
  std::uint64_t n_nodes() const noexcept { return n_nodes_; }
  Boundary boundary() const noexcept { return boundary_; }

  /// Number of parity blocks the full lattice holds: α·n for closed,
  /// α·n for open too (every node creates α output edges; open inputs
  /// with h ≤ 0 are virtual zero blocks, not stored).
  std::uint64_t n_edges() const noexcept;

  // --- geometry -----------------------------------------------------------

  bool is_valid_node(NodeIndex i) const noexcept {
    return i >= 1 && static_cast<std::uint64_t>(i) <= n_nodes_;
  }

  /// Row in [1, s].
  std::uint32_t row(NodeIndex i) const;

  /// Column in [1, n/s].
  std::int64_t column(NodeIndex i) const;

  /// top / central / bottom (paper: top iff i ≡ 1 mod s, bottom iff
  /// i ≡ 0 mod s). With s = 1 a node is simultaneously top and bottom;
  /// kTop is returned and the rule functions special-case s = 1.
  NodeClass node_class(NodeIndex i) const;

  /// Strand instance a node belongs to for a class: [0, s) for H,
  /// [0, p) for RH/LH.
  std::uint32_t strand_id(NodeIndex i, StrandClass cls) const;

  // --- rules tables (raw, unwrapped) --------------------------------------

  /// Table II: the head j of the output parity p_{i,j} created by d_i on
  /// `cls`. Unwrapped: may exceed n_nodes.
  NodeIndex output_index_raw(NodeIndex i, StrandClass cls) const;

  /// Table I: the tail h of the input parity p_{h,i} consumed by d_i on
  /// `cls`. Unwrapped: may be ≤ 0 near the open-lattice origin.
  NodeIndex input_index_raw(NodeIndex i, StrandClass cls) const;

  // --- edge navigation (boundary-aware) ------------------------------------

  /// Head node j of edge p_{i,j}. Closed: wrapped into [1, n].
  /// Open: may exceed n_nodes (dangling edge; the head node does not
  /// exist yet).
  NodeIndex edge_head(Edge e) const;

  /// The input edge of node i on `cls` — i.e. Edge{cls, h}. Open lattices
  /// return nullopt when h ≤ 0 (strand bootstrap: virtual zero block).
  std::optional<Edge> input_edge(NodeIndex i, StrandClass cls) const;

  /// The output edge of node i on `cls` (always exists).
  Edge output_edge(NodeIndex i, StrandClass cls) const {
    AEC_DCHECK(is_valid_node(i));
    return Edge{cls, i};
  }

  /// Next node on the same strand (edge_head of the output edge).
  NodeIndex next_on_strand(NodeIndex i, StrandClass cls) const;

  /// Previous node on the same strand, or nullopt at an open origin.
  std::optional<NodeIndex> prev_on_strand(NodeIndex i, StrandClass cls) const;

  /// All 2·α edges incident to node i (α inputs that exist + α outputs).
  std::vector<Edge> incident_edges(NodeIndex i) const;

  /// Wraps an arbitrary (possibly out-of-range) raw index into [1, n]
  /// for closed lattices; identity for open lattices.
  NodeIndex wrap(NodeIndex i) const;

 private:
  CodeParams params_;
  std::uint64_t n_nodes_;
  Boundary boundary_;
};

}  // namespace aec
