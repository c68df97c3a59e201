#include "core/lattice/lattice.h"

#include "common/check.h"

namespace aec {

Lattice::Lattice(CodeParams params, std::uint64_t n_nodes, Boundary boundary)
    : params_(std::move(params)), n_nodes_(n_nodes), boundary_(boundary) {
  AEC_CHECK_MSG(n_nodes_ >= 1, "lattice needs at least one node");
  if (boundary_ == Boundary::kClosed) {
    if (params_.alpha() >= 2) {
      const std::uint64_t wrap_unit =
          static_cast<std::uint64_t>(params_.s()) * params_.p();
      AEC_CHECK_MSG(n_nodes_ % wrap_unit == 0 && n_nodes_ >= 2 * wrap_unit,
                    "closed lattice: n_nodes must be a multiple of s*p and "
                    "at least 2*s*p, got n="
                        << n_nodes_ << " s*p=" << wrap_unit);
    } else {
      AEC_CHECK_MSG(n_nodes_ >= 3,
                    "closed AE(1) ring needs at least 3 nodes");
    }
  }
}

std::uint64_t Lattice::n_edges() const noexcept {
  return n_nodes_ * params_.alpha();
}

std::uint32_t Lattice::row(NodeIndex i) const {
  AEC_DCHECK(i >= 1);
  return static_cast<std::uint32_t>((i - 1) % params_.s()) + 1;
}

std::int64_t Lattice::column(NodeIndex i) const {
  AEC_DCHECK(i >= 1);
  return (i - 1) / params_.s() + 1;
}

NodeClass Lattice::node_class(NodeIndex i) const {
  const std::uint32_t s = params_.s();
  if (s == 1) return NodeClass::kTop;  // degenerate: top and bottom at once
  const std::int64_t m = (i - 1) % s;  // 0 → top, s-1 → bottom
  if (m == 0) return NodeClass::kTop;
  if (m == s - 1) return NodeClass::kBottom;
  return NodeClass::kCentral;
}

std::uint32_t Lattice::strand_id(NodeIndex i, StrandClass cls) const {
  const auto s = static_cast<std::int64_t>(params_.s());
  const auto p = static_cast<std::int64_t>(params_.p());
  switch (cls) {
    case StrandClass::kHorizontal:
      return static_cast<std::uint32_t>((i - 1) % s);
    case StrandClass::kRightHanded: {
      AEC_DCHECK(p >= 1);
      const std::int64_t r = (i - 1) % s + 1;
      const std::int64_t c = (i - 1) / s + 1;
      return static_cast<std::uint32_t>((((c - r) % p) + p) % p);
    }
    case StrandClass::kLeftHanded: {
      AEC_DCHECK(p >= 1);
      const std::int64_t r = (i - 1) % s + 1;
      const std::int64_t c = (i - 1) / s + 1;
      return static_cast<std::uint32_t>((c + r) % p);
    }
  }
  AEC_CHECK_MSG(false, "unreachable strand class");
  return 0;
}

NodeIndex Lattice::output_index_raw(NodeIndex i, StrandClass cls) const {
  const auto s = static_cast<std::int64_t>(params_.s());
  const auto p = static_cast<std::int64_t>(params_.p());
  if (cls == StrandClass::kHorizontal) return i + s;

  // Helical strands on a single-row lattice jump p positions (degenerate
  // form of the top/bottom wrap rules with s = 1).
  if (s == 1) return i + p;

  const NodeClass nc = node_class(i);
  if (cls == StrandClass::kRightHanded) {
    switch (nc) {
      case NodeClass::kTop:
      case NodeClass::kCentral:
        return i + s + 1;
      case NodeClass::kBottom:
        return i + s * p - (s * s - 1);
    }
  } else {  // kLeftHanded
    switch (nc) {
      case NodeClass::kTop:
        return i + s * p - (s - 1) * (s - 1);
      case NodeClass::kCentral:
      case NodeClass::kBottom:
        return i + s - 1;
    }
  }
  AEC_CHECK_MSG(false, "unreachable node class");
  return 0;
}

NodeIndex Lattice::input_index_raw(NodeIndex i, StrandClass cls) const {
  const auto s = static_cast<std::int64_t>(params_.s());
  const auto p = static_cast<std::int64_t>(params_.p());
  if (cls == StrandClass::kHorizontal) return i - s;

  if (s == 1) return i - p;

  const NodeClass nc = node_class(i);
  if (cls == StrandClass::kRightHanded) {
    switch (nc) {
      case NodeClass::kTop:
        return i - s * p + (s * s - 1);
      case NodeClass::kCentral:
      case NodeClass::kBottom:
        return i - (s + 1);
    }
  } else {  // kLeftHanded
    switch (nc) {
      case NodeClass::kTop:
      case NodeClass::kCentral:
        return i - (s - 1);
      case NodeClass::kBottom:
        return i - s * p + (s - 1) * (s - 1);
    }
  }
  AEC_CHECK_MSG(false, "unreachable node class");
  return 0;
}

NodeIndex Lattice::wrap(NodeIndex i) const {
  if (boundary_ == Boundary::kOpen) return i;
  const auto n = static_cast<std::int64_t>(n_nodes_);
  return ((i - 1) % n + n) % n + 1;
}

NodeIndex Lattice::edge_head(Edge e) const {
  // The rule tables apply to the tail's *unwrapped* class; row, column
  // offsets and node classes are preserved by wrapping (n is a multiple
  // of s·p), so applying the raw rule to the wrapped tail is equivalent.
  return wrap(output_index_raw(e.tail, e.cls));
}

std::optional<Edge> Lattice::input_edge(NodeIndex i, StrandClass cls) const {
  const NodeIndex h = input_index_raw(i, cls);
  if (boundary_ == Boundary::kOpen) {
    if (h < 1) return std::nullopt;  // strand bootstrap: virtual zero block
    return Edge{cls, h};
  }
  return Edge{cls, wrap(h)};
}

NodeIndex Lattice::next_on_strand(NodeIndex i, StrandClass cls) const {
  return wrap(output_index_raw(i, cls));
}

std::optional<NodeIndex> Lattice::prev_on_strand(NodeIndex i,
                                                 StrandClass cls) const {
  const NodeIndex h = input_index_raw(i, cls);
  if (boundary_ == Boundary::kOpen && h < 1) return std::nullopt;
  return wrap(h);
}

std::vector<Edge> Lattice::incident_edges(NodeIndex i) const {
  std::vector<Edge> edges;
  edges.reserve(2 * params_.alpha());
  for (StrandClass cls : params_.classes()) {
    if (auto in = input_edge(i, cls)) edges.push_back(*in);
    edges.push_back(output_edge(i, cls));
  }
  return edges;
}

}  // namespace aec
