// Minimal-erasure analysis (paper §V-A, Figs 6–9).
//
// A *minimal erasure* ME(x) is an irreducible erasure pattern that causes
// the irrecoverable loss of exactly x data blocks: the iterative decoder
// recovers none of its blocks, and removing any single block from the
// pattern makes some erased block recoverable. |ME(x)| is the total size
// (data + parity blocks) of the smallest such pattern. The paper derives
// these by visual inspection plus a Prolog tool; we compute them exactly.
//
// Structure theorem the search exploits: under the iterative decoder, an
// erased parity is permanently dead iff it belongs to a maximal run of
// erased edges, consecutive on one strand, whose two extreme endpoints
// are erased data nodes. Hence a minimal erasure with node set S erases,
// per strand instance, a set of "gaps" between strand-consecutive members
// of S such that every member is adjacent to a chosen gap, and every node
// of S needs a chosen gap on *each* of its α strands. The search
// enumerates anchored node sets inside a window (translation invariance)
// and solves the per-strand minimum gap cover exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/lattice/lattice.h"

namespace aec {

/// A concrete erasure pattern: erased data nodes + erased parities.
struct ErasurePattern {
  std::vector<NodeIndex> nodes;
  std::vector<Edge> edges;

  std::uint64_t size() const noexcept {
    return nodes.size() + edges.size();
  }
};

class MinimalErasureSearch {
 public:
  explicit MinimalErasureSearch(CodeParams params);

  /// Smallest minimal erasure losing exactly x data blocks, or nullopt
  /// if none exists within the search window (for connected lattices a
  /// pattern always exists). x in [1, 8]; x = 1 has no pattern (a lone
  /// node is always recoverable through any strand) and returns nullopt.
  std::optional<ErasurePattern> find_minimal_erasure(std::uint32_t x) const;

  /// |ME(x)| as a size, or nullopt (convenience wrapper).
  std::optional<std::uint64_t> me_size(std::uint32_t x) const;

  /// Closed form for |ME(2)| validated by the search and by the paper's
  /// examples: 3 for α = 1, otherwise 2 + p + (α−1)·s.
  static std::uint64_t me2_closed_form(const CodeParams& params);

  /// MEL-style profile (paper §V-A cites Wylie's minimal erasures list):
  /// the number of distinct minimal erasures with x data blocks, per
  /// pattern size, anchored at one (arbitrary interior) node — i.e. the
  /// per-node density of fatal patterns. Sizes capped at `max_size`.
  /// Keys: pattern size; values: count of distinct patterns.
  std::map<std::uint64_t, std::uint64_t> pattern_profile(
      std::uint32_t x, std::uint64_t max_size) const;

  const CodeParams& params() const noexcept { return params_; }

 private:
  CodeParams params_;
  NodeIndex base_;          // anchor deep inside the virtual lattice
  std::int64_t window_;     // node-offset search window
};

/// Independent check with the repair planner the byte codec executes
/// (RepairPlanner::plan, the synchronous-round fixpoint): (a) the
/// fixpoint recovers no block of the pattern; (b) removing any single
/// block makes some erased block recoverable. This is the executable
/// replacement for the paper's Prolog verification.
bool verify_minimal_erasure(const CodeParams& params,
                            const ErasurePattern& pattern);

}  // namespace aec
