// Identity of a stored block: either a data block d_i or a parity block
// p_{i,j} (named by strand class + tail node, see lattice.h).
#pragma once

#include <cstdint>
#include <string>

#include "core/lattice/lattice.h"

namespace aec {

struct BlockKey {
  enum class Kind : std::uint8_t { kData = 0, kParity = 1 };

  Kind kind{Kind::kData};
  StrandClass cls{StrandClass::kHorizontal};  // meaningful for parity only
  NodeIndex index{0};  // node position (data) or edge tail (parity)

  static BlockKey data(NodeIndex i) noexcept {
    return BlockKey{Kind::kData, StrandClass::kHorizontal, i};
  }
  static BlockKey parity(Edge e) noexcept {
    return BlockKey{Kind::kParity, e.cls, e.tail};
  }

  bool is_data() const noexcept { return kind == Kind::kData; }
  bool is_parity() const noexcept { return kind == Kind::kParity; }
  Edge edge() const noexcept { return Edge{cls, index}; }

  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const noexcept {
    // index dominates; kind and class perturb the low bits.
    auto h = static_cast<std::size_t>(k.index);
    h = h * 1315423911u ^ (static_cast<std::size_t>(k.cls) << 1) ^
        static_cast<std::size_t>(k.kind);
    return h;
  }
};

/// BlockKeyHash run through a murmur finalizer — the shard picker of
/// the sharded FileBlockStore layout (a block's shard directory is this
/// hash mod the shard count, pinned on disk). BlockKeyHash keeps the
/// index in the high bits; the re-mix makes adjacent lattice indices
/// land on different shards.
inline std::size_t mixed_block_key_hash(const BlockKey& k) noexcept {
  std::size_t h = BlockKeyHash{}(k);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// True when an (open) lattice of `n_nodes` nodes under `params` stores
/// `key`: data or parity at an in-range index, parity class among the
/// code's classes. The sessions' is_expected_key; Availability::covers
/// answers the same for a built map (AvailabilityTest holds them equal).
inline bool lattice_expects(const CodeParams& params, std::uint64_t n_nodes,
                            const BlockKey& key) noexcept {
  if (key.index < 1 || static_cast<std::uint64_t>(key.index) > n_nodes)
    return false;
  if (key.is_data()) return true;
  for (StrandClass cls : params.classes())
    if (cls == key.cls) return true;
  return false;
}

/// "d26", "p(H,21)" — debugging / logging aid.
inline std::string to_string(const BlockKey& k) {
  if (k.is_data()) {
    std::string out = "d";
    out += std::to_string(k.index);
    return out;
  }
  std::string out = "p(";
  out += to_string(k.cls);
  out += ',';
  out += std::to_string(k.index);
  out += ')';
  return out;
}

}  // namespace aec
