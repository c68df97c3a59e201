// Quickstart: entangle a buffer with AE(3,2,5), lose blocks, repair.
//
//   $ ./examples/quickstart
//
// Walks through the library's public path — a Codec, a BlockStore and an
// Engine session over them — on a small open lattice and shows the α
// repair alternatives of a data block.
#include <cstdio>

#include "api/engine.h"
#include "common/rng.h"
#include "pipeline/concurrent_block_store.h"

int main() {
  using namespace aec;

  // 1. Pick a code. AE(3,2,5) = 3 parities per block, 2 horizontal and
  //    2×5 helical strands; 300 % storage overhead, |ME(2)| = 9.
  const CodeParams params(3, 2, 5);
  constexpr std::size_t kBlockSize = 4096;
  constexpr std::uint64_t kBlocks = 100;

  std::printf("code          : %s\n", params.name().c_str());
  std::printf("code rate     : %.3f\n", params.code_rate());
  std::printf("storage cost  : +%.0f%%\n",
              params.storage_overhead_percent());
  std::printf("strands       : %u\n", params.total_strands());

  // 2. Entangle 100 random 4-KiB blocks into an in-memory store through
  //    a session of a one-thread engine (the serial case; sessions need a
  //    store that synchronizes itself).
  pipeline::ConcurrentBlockStore store;
  const auto session = Engine::serial()->open_session(
      make_codec(params.name()), &store, kBlockSize);
  Rng rng(42);
  std::vector<Bytes> originals;
  for (std::uint64_t i = 0; i < kBlocks; ++i)
    originals.push_back(rng.random_block(kBlockSize));
  session->append(originals);
  std::printf("stored blocks : %llu (%llu data + %llu parity)\n",
              static_cast<unsigned long long>(store.size()),
              static_cast<unsigned long long>(kBlocks),
              static_cast<unsigned long long>(kBlocks * params.alpha()));

  // 3. Lose a handful of blocks — data and parities.
  const Lattice lattice(params, kBlocks, Lattice::Boundary::kOpen);
  store.erase(BlockKey::data(42));
  store.erase(BlockKey::data(43));
  store.erase(BlockKey::parity(
      lattice.output_edge(42, StrandClass::kHorizontal)));
  store.erase(BlockKey::parity(
      lattice.output_edge(60, StrandClass::kLeftHanded)));
  std::printf("\nerased d42, d43, p(H,42), p(LH,60)\n");

  // 4. Targeted read: a one-block stream repairs d42 through the shortest
  //    available path (the H pair is broken, so another strand serves).
  const auto d42 = session->open_stream(42, 1, 1)->next();
  std::printf("read d42      : %s\n",
              d42 == originals[41] ? "repaired, bytes match"
                                           : "FAILED");

  // 5. Global repair: synchronous rounds until fixpoint.
  const RepairReport report = session->repair_all();
  std::printf("repair_all    : %llu nodes + %llu edges in %u round(s)\n",
              static_cast<unsigned long long>(report.nodes_repaired_total),
              static_cast<unsigned long long>(report.edges_repaired_total),
              report.rounds);
  std::printf("unrecovered   : %llu\n",
              static_cast<unsigned long long>(report.nodes_unrecovered +
                                              report.edges_unrecovered));

  // 6. Verify every data block against the original content.
  std::uint64_t intact = 0;
  for (std::uint64_t i = 1; i <= kBlocks; ++i) {
    const auto value = store.get_copy(BlockKey::data(static_cast<NodeIndex>(i)));
    if (value && *value == originals[i - 1]) ++intact;
  }
  std::printf("verified      : %llu/%llu data blocks byte-identical\n",
              static_cast<unsigned long long>(intact),
              static_cast<unsigned long long>(kBlocks));
  return intact == kBlocks ? 0 : 1;
}
