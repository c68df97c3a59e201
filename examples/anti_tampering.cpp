// Anti-tampering (paper §III-B "Anti-tampering Property").
//
//   $ ./examples/anti_tampering
//
// Entanglement makes data modification expensive to hide: every parity
// pins its whole strand prefix. The example forges a block, shows the
// verifier pinpointing it, and prices the full cover-up.
#include <cstdio>

#include "api/engine.h"
#include "common/rng.h"
#include "core/codec/tamper.h"
#include "pipeline/concurrent_block_store.h"

int main() {
  using namespace aec;

  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 256;
  constexpr std::uint64_t kBlocks = 60;

  pipeline::ConcurrentBlockStore store;
  const auto session = Engine::serial()->open_session(
      make_codec(params.name()), &store, kBlockSize);
  Rng rng(9);
  session->append(rng.random_block(kBlocks * kBlockSize));  // blocks end to end
  const Lattice lattice(params, kBlocks, Lattice::Boundary::kOpen);

  auto scan = scan_for_tampering(store, lattice, kBlockSize);
  std::printf("clean archive: %zu inconsistent parities, %zu suspects\n",
              scan.inconsistent_parities.size(), scan.suspect_nodes.size());

  // An attacker silently modifies d26.
  Bytes forged = *store.get_copy(BlockKey::data(26));
  forged[0] ^= 0x80;
  store.put(BlockKey::data(26), forged);

  scan = scan_for_tampering(store, lattice, kBlockSize);
  std::printf("\nafter forging d26:\n");
  std::printf("  inconsistent parities: %zu\n",
              scan.inconsistent_parities.size());
  for (const Edge& e : scan.inconsistent_parities)
    std::printf("    p(%s,%lld) disagrees with its inputs\n",
                to_string(e.cls), static_cast<long long>(e.tail));
  for (NodeIndex suspect : scan.suspect_nodes)
    std::printf("  suspect data block: d%lld (all strands disagree)\n",
                static_cast<long long>(suspect));

  // The cost of an undetectable modification (paper: replace every parity
  // from the target to each strand extremity).
  std::printf("\ncover-up price per block position:\n");
  for (NodeIndex i : {NodeIndex{5}, NodeIndex{26}, NodeIndex{55}}) {
    std::printf("  tampering d%-3lld undetectably requires rewriting "
                "%llu parity blocks\n",
                static_cast<long long>(i),
                static_cast<unsigned long long>(
                    min_tamper_set_size(lattice, i)));
  }
  std::printf("\n(the earlier the block, the longer the strand suffixes "
              "an attacker must recompute)\n");
  return scan.suspect_nodes.size() == 1 && scan.suspect_nodes[0] == 26 ? 0
                                                                       : 1;
}
