// Shared helpers for the tests that drive the AE codec directly: random
// content, encoding and repair through the library's one executor
// (ParallelEncoder / ParallelRepairer; a one-worker pool is the serial
// case), and the ground-truth encoding oracle.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/codec/block_store.h"
#include "core/codec/tamper.h"
#include "core/lattice/lattice.h"
#include "pipeline/concurrent_block_store.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/parallel_repairer.h"
#include "pipeline/thread_pool.h"

namespace aec::test {

/// `count` blocks of `block_size` random bytes, drawn in order from one
/// Rng(seed) stream.
inline std::vector<Bytes> random_blocks(std::size_t count,
                                        std::size_t block_size,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(block_size));
  return blocks;
}

/// Entangles `blocks` as one batch into `store` on a `threads`-worker
/// pool (one worker by default).
inline void encode_into(const CodeParams& params, std::size_t block_size,
                        const std::vector<Bytes>& blocks, BlockStore& store,
                        std::size_t threads = 1) {
  pipeline::ThreadPool pool(threads);
  pipeline::ParallelEncoder encoder(params, block_size, &store, &pool);
  encoder.append_all(blocks);
}

/// Ground-truth check of an encoding, needing no second encoder: every
/// data block equals its input, every expected parity is present, nothing
/// else is stored, and no parity breaks p_{i,j} = d_i XOR p_{h,i} (zero
/// block at strand bootstrap). From the bootstrap onwards that equation
/// fixes every parity byte.
inline void expect_encoding_of(const CodeParams& params,
                               std::size_t block_size,
                               const std::vector<Bytes>& blocks,
                               const BlockStore& store) {
  ASSERT_FALSE(blocks.empty());
  const Lattice lattice(params, blocks.size(), Lattice::Boundary::kOpen);
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(blocks.size()); ++i) {
    ASSERT_EQ(store.get_copy(BlockKey::data(i)),
              blocks[static_cast<std::size_t>(i - 1)])
        << "d" << i;
    for (StrandClass cls : params.classes()) {
      const BlockKey key = BlockKey::parity(lattice.output_edge(i, cls));
      ASSERT_TRUE(store.contains(key)) << to_string(key);
    }
  }
  EXPECT_EQ(store.size(), blocks.size() * (1 + params.alpha()));
  const TamperScanResult scan =
      scan_for_tampering(store, lattice, block_size);
  EXPECT_TRUE(scan.inconsistent_parities.empty())
      << scan.inconsistent_parities.size() << " parities break the "
      << "entanglement equation";
  EXPECT_TRUE(scan.suspect_nodes.empty());
}

/// Every block of `expected` present and byte-identical in `actual`, and
/// no extras.
inline void expect_stores_identical(
    const pipeline::ConcurrentBlockStore& expected, const BlockStore& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  expected.for_each([&](const BlockKey& key, BytesView value) {
    const auto copy = actual.get_copy(key);
    ASSERT_TRUE(copy.has_value()) << to_string(key);
    ASSERT_EQ(*copy, Bytes(value.begin(), value.end())) << to_string(key);
  });
}

/// A lattice of `count` random blocks entangled into an in-memory store,
/// repaired through a one-worker pool.
struct EncodedLattice {
  CodeParams params;
  std::size_t block_size;
  std::vector<Bytes> blocks;
  pipeline::ConcurrentBlockStore store;
  pipeline::ThreadPool pool{1};

  EncodedLattice(CodeParams code, std::uint64_t count,
                 std::size_t block_bytes, std::uint64_t seed)
      : params(std::move(code)),
        block_size(block_bytes),
        blocks(random_blocks(static_cast<std::size_t>(count), block_bytes,
                             seed)) {
    encode_into(params, block_size, blocks, store);
  }

  std::uint64_t n() const noexcept { return blocks.size(); }
  Lattice lattice() const {
    return Lattice(params, n(), Lattice::Boundary::kOpen);
  }
  const Bytes& truth(NodeIndex i) const {
    return blocks[static_cast<std::size_t>(i - 1)];
  }

  pipeline::ParallelRepairer repairer() {
    return pipeline::ParallelRepairer(params, n(), block_size, &store, &pool);
  }
  RepairReport repair_all() { return repairer().repair_all(); }
  Block read_node(NodeIndex i) { return repairer().read_node(i); }
};

}  // namespace aec::test
