#include <gtest/gtest.h>

#include "ae_test_util.h"
#include "common/xor_engine.h"
#include "core/codec/tamper.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 32;

struct Fixture {
  CodeParams params;
  pipeline::ConcurrentBlockStore store;
  std::uint64_t n;

  explicit Fixture(CodeParams code, std::uint64_t count = 100)
      : params(code), n(count) {
    test::encode_into(params, kBlockSize,
                      test::random_blocks(n, kBlockSize, 77), store);
  }

  Lattice lattice() const {
    return Lattice(params, n, Lattice::Boundary::kOpen);
  }
};

TEST(Tamper, CleanLatticeVerifies) {
  Fixture f(CodeParams(3, 2, 5));
  const Lattice lat = f.lattice();
  for (NodeIndex i = 1; i <= 100; ++i)
    EXPECT_TRUE(verify_node(f.store, lat, i, kBlockSize)) << i;
  const auto scan = scan_for_tampering(f.store, lat, kBlockSize);
  EXPECT_TRUE(scan.inconsistent_parities.empty());
  EXPECT_TRUE(scan.suspect_nodes.empty());
}

TEST(Tamper, ModifiedDataBlockDetectedOnAllStrands) {
  Fixture f(CodeParams(3, 2, 5));
  const Lattice lat = f.lattice();
  Bytes forged = *f.store.get_copy(BlockKey::data(50));
  forged[3] ^= 0x40;
  f.store.put(BlockKey::data(50), forged);

  EXPECT_FALSE(verify_node(f.store, lat, 50, kBlockSize));
  const auto scan = scan_for_tampering(f.store, lat, kBlockSize);
  // All α output parities of d50 disagree → d50 is a suspect.
  ASSERT_EQ(scan.suspect_nodes.size(), 1u);
  EXPECT_EQ(scan.suspect_nodes[0], 50);
  // And the inconsistency also shows downstream: the *input* parities of
  // the successors of 50 no longer match (their tails are other nodes, so
  // they appear as inconsistent parities of those tails' checks? No —
  // they are p_{50,j}, flagged under node 50). Exactly α flags:
  EXPECT_EQ(scan.inconsistent_parities.size(), 3u);
  for (const Edge& e : scan.inconsistent_parities) EXPECT_EQ(e.tail, 50);
}

TEST(Tamper, ModifiedParityFlagsEdgeButNotNode) {
  Fixture f(CodeParams(3, 2, 5));
  const Lattice lat = f.lattice();
  const Edge e = lat.output_edge(50, StrandClass::kRightHanded);
  Bytes forged = *f.store.get_copy(BlockKey::parity(e));
  forged[0] ^= 0x01;
  f.store.put(BlockKey::parity(e), forged);

  const auto scan = scan_for_tampering(f.store, lat, kBlockSize);
  // The forged parity is inconsistent as node 50's output; it is also the
  // *input* of the next RH node, making that node's output check fail.
  EXPECT_GE(scan.inconsistent_parities.size(), 1u);
  bool found = false;
  for (const Edge& flagged : scan.inconsistent_parities)
    if (flagged == e) found = true;
  EXPECT_TRUE(found);
  // A single forged parity never matches the all-strands-disagree
  // signature of a modified data block.
  EXPECT_TRUE(scan.suspect_nodes.empty());
}

TEST(Tamper, MinTamperSetGrowsTowardTheOrigin) {
  // Paper §III-B: an attacker must recompute every parity from the target
  // to each strand extremity — the earlier the block, the more expensive.
  Fixture f(CodeParams(3, 2, 5));
  const Lattice lat = f.lattice();
  const std::uint64_t early = min_tamper_set_size(lat, 10);
  const std::uint64_t late = min_tamper_set_size(lat, 90);
  EXPECT_GT(early, late);
  EXPECT_GE(late, 3u);  // at least one parity per strand
}

TEST(Tamper, MinTamperSetSingleEntanglement) {
  Fixture f(CodeParams::single(), 50);
  const Lattice lat = f.lattice();
  // Chain of 50: tampering d10 needs parities p10..p50 → 41 blocks.
  EXPECT_EQ(min_tamper_set_size(lat, 10), 41u);
  EXPECT_EQ(min_tamper_set_size(lat, 50), 1u);
}

TEST(Tamper, AttackerRewritingWholeSuffixGoesUndetected) {
  // Sanity check of the threat model: recomputing *all* downstream
  // parities on all strands makes the forgery invisible to the verifier.
  Fixture f(CodeParams(2, 1, 2), 40);
  const Lattice lat = f.lattice();

  Bytes forged = *f.store.get_copy(BlockKey::data(20));
  forged[7] ^= 0xFF;
  f.store.put(BlockKey::data(20), forged);

  // Recompute every parity from scratch in index order (the attacker
  // controls the store).
  for (NodeIndex i = 1; i <= 40; ++i) {
    const Bytes data = *f.store.get_copy(BlockKey::data(i));
    for (StrandClass cls : f.params.classes()) {
      Bytes parity = data;
      if (const auto in = lat.input_edge(i, cls))
        parity =
            xor_of(data, *f.store.get_copy(BlockKey::parity(*in))).to_bytes();
      f.store.put(BlockKey::parity(lat.output_edge(i, cls)), parity);
    }
  }
  const auto scan = scan_for_tampering(f.store, lat, kBlockSize);
  EXPECT_TRUE(scan.inconsistent_parities.empty());
  EXPECT_TRUE(scan.suspect_nodes.empty());
}

}  // namespace
}  // namespace aec
