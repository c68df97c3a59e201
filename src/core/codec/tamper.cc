#include "core/codec/tamper.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "common/xor_engine.h"

namespace aec {

namespace {

/// Nodes one scan window covers.
constexpr NodeIndex kScanWindowNodes = 64;

/// Every block the checks of nodes [first, last] read — their data
/// blocks and input/output parities, each key once — fetched in one
/// get_blocks, so a scan holds one window's blocks at a time.
class ScanWindow {
 public:
  ScanWindow(const BlockStore& store, const Lattice& lattice,
             NodeIndex first, NodeIndex last) {
    std::vector<BlockKey> keys;
    const auto want = [&](const BlockKey& key) {
      if (payloads_.try_emplace(key).second) keys.push_back(key);
    };
    for (NodeIndex i = first; i <= last; ++i) {
      want(BlockKey::data(i));
      for (StrandClass cls : lattice.params().classes()) {
        want(BlockKey::parity(lattice.output_edge(i, cls)));
        if (const auto in = lattice.input_edge(i, cls))
          want(BlockKey::parity(*in));
      }
    }
    std::vector<Block> got = store.get_blocks(keys);
    for (std::size_t k = 0; k < keys.size(); ++k)
      payloads_[keys[k]] = std::move(got[k]);
  }

  /// The block of a key of the window, null when missing.
  const Block& payload(const BlockKey& key) const { return payloads_.at(key); }

 private:
  std::unordered_map<BlockKey, Block, BlockKeyHash> payloads_;
};

/// Checks one (data, input parity, output parity) triple. Returns:
/// +1 consistent, -1 inconsistent, 0 not verifiable (some block missing).
int check_triple(const ScanWindow& window, const Lattice& lattice,
                 NodeIndex i, StrandClass cls, std::size_t block_size) {
  const Block& data = window.payload(BlockKey::data(i));
  if (!data) return 0;
  const Block& out =
      window.payload(BlockKey::parity(lattice.output_edge(i, cls)));
  if (!out) return 0;

  Block expected;
  if (auto in = lattice.input_edge(i, cls)) {
    const Block& in_value = window.payload(BlockKey::parity(*in));
    if (!in_value) return 0;
    expected = xor_of(data, in_value);
  } else {
    expected = data;  // bootstrap input is the zero block
  }
  AEC_CHECK_MSG(expected.size() == block_size && out.size() == block_size,
                "tamper check: inconsistent block sizes");
  return expected == out ? 1 : -1;
}

}  // namespace

bool verify_node(const BlockStore& store, const Lattice& lattice,
                 NodeIndex i, std::size_t block_size) {
  const ScanWindow window(store, lattice, i, i);
  for (StrandClass cls : lattice.params().classes())
    if (check_triple(window, lattice, i, cls, block_size) < 0) return false;
  return true;
}

TamperScanResult scan_for_tampering(const BlockStore& store,
                                    const Lattice& lattice,
                                    std::size_t block_size) {
  TamperScanResult result;
  const auto n = static_cast<NodeIndex>(lattice.n_nodes());
  for (NodeIndex first = 1; first <= n; first += kScanWindowNodes) {
    const NodeIndex last = std::min(n, first + kScanWindowNodes - 1);
    const ScanWindow window(store, lattice, first, last);
    for (NodeIndex i = first; i <= last; ++i) {
      int verifiable = 0;
      int inconsistent = 0;
      for (StrandClass cls : lattice.params().classes()) {
        const int v = check_triple(window, lattice, i, cls, block_size);
        if (v != 0) ++verifiable;
        if (v < 0) {
          ++inconsistent;
          result.inconsistent_parities.push_back(
              lattice.output_edge(i, cls));
        }
      }
      if (verifiable > 0 && inconsistent == verifiable)
        result.suspect_nodes.push_back(i);
    }
  }
  return result;
}

std::uint64_t min_tamper_set_size(const Lattice& lattice, NodeIndex i) {
  AEC_CHECK_MSG(lattice.boundary() == Lattice::Boundary::kOpen,
                "tamper set size defined for open lattices");
  AEC_CHECK_MSG(lattice.is_valid_node(i), "invalid node " << i);
  std::uint64_t total = 0;
  for (StrandClass cls : lattice.params().classes()) {
    // Every node from i to the strand extremity contributes its output
    // parity (all of them embed d_i's value).
    NodeIndex cursor = i;
    while (lattice.is_valid_node(cursor)) {
      ++total;
      cursor = lattice.output_index_raw(cursor, cls);
    }
  }
  return total;
}

}  // namespace aec
