// Anti-tampering verification (paper §III-B "Anti-tampering Property").
//
// Entanglement is an emergent integrity mechanism: every parity pins the
// value of its strand prefix, so modifying d_i undetectably requires
// recomputing *all* parities from i to the extremity of each of its α
// strands. The verifier recomputes p_{i,j} = d_i XOR p_{h,i} and flags
// mismatches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/codec/block_store.h"
#include "core/lattice/lattice.h"

namespace aec {

struct TamperScanResult {
  /// Parities inconsistent with their tail data block + input parity.
  std::vector<Edge> inconsistent_parities;
  /// Nodes all of whose verifiable output parities disagree — the usual
  /// signature of a modified data block.
  std::vector<NodeIndex> suspect_nodes;
};

/// Verifies the α output parities of node i (those whose inputs and data
/// are present). Returns false if any present pair is inconsistent.
bool verify_node(const BlockStore& store, const Lattice& lattice,
                 NodeIndex i, std::size_t block_size);

/// Full-lattice scan, reading through get_blocks() in windows of nodes,
/// so its memory does not grow with the lattice.
TamperScanResult scan_for_tampering(const BlockStore& store,
                                    const Lattice& lattice,
                                    std::size_t block_size);

/// Number of parity blocks an attacker must recompute-and-replace to
/// modify d_i without detection: the α strand suffixes from i to each
/// strand extremity (open lattices only — on a closed topology the set
/// is the whole strand).
std::uint64_t min_tamper_set_size(const Lattice& lattice, NodeIndex i);

}  // namespace aec
