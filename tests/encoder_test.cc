// The AE encoder (paper §III-B) on a one-worker pool: block placement,
// the entanglement equation, the strand-head memory bound and crash
// recovery. Multi-worker scheduling is covered by pipeline_test.
#include <gtest/gtest.h>

#include <tuple>

#include "ae_test_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/xor_engine.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/thread_pool.h"

namespace aec {
namespace {

using pipeline::ParallelEncoder;
using pipeline::ThreadPool;

constexpr std::size_t kBlockSize = 64;

std::vector<Bytes> random_blocks(std::size_t count, Rng& rng) {
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    blocks.push_back(rng.random_block(kBlockSize));
  return blocks;
}

TEST(Encoding, StoresDataAndAlphaParities) {
  pipeline::ConcurrentBlockStore store;
  ThreadPool pool(1);
  ParallelEncoder enc(CodeParams(3, 2, 5), kBlockSize, &store, &pool);
  Rng rng(1);
  enc.append_all({rng.random_block(kBlockSize)});
  EXPECT_EQ(store.size(), 4u);  // 1 data + 3 parities
}

TEST(Encoding, RejectsWrongBlockSize) {
  pipeline::ConcurrentBlockStore store;
  ThreadPool pool(1);
  ParallelEncoder enc(CodeParams(3, 2, 5), kBlockSize, &store, &pool);
  EXPECT_THROW(enc.append_all({Bytes(kBlockSize - 1, 0)}), CheckError);
  EXPECT_EQ(store.size(), 0u);
}

TEST(Encoding, FirstParityEqualsDataOnBootstrapStrand) {
  // p_{1,j} = d_1 XOR zero-block = d_1.
  pipeline::ConcurrentBlockStore store;
  Rng rng(2);
  const Bytes d1 = rng.random_block(kBlockSize);
  test::encode_into(CodeParams::single(), kBlockSize, {d1}, store);
  const Lattice lattice(CodeParams::single(), 1, Lattice::Boundary::kOpen);
  const auto p = store.get_copy(BlockKey::parity(
      lattice.output_edge(1, StrandClass::kHorizontal)));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, d1);
}

TEST(Encoding, ChainRecurrenceForSingleEntanglement) {
  // p_{i,i+1} = d_i XOR p_{i-1,i}: the running XOR of the whole prefix.
  pipeline::ConcurrentBlockStore store;
  Rng rng(3);
  const auto blocks = random_blocks(10, rng);
  test::encode_into(CodeParams::single(), kBlockSize, blocks, store);

  Bytes prefix(kBlockSize, 0);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    xor_into(prefix, blocks[i]);
    const auto p = store.get_copy(BlockKey::parity(
        Edge{StrandClass::kHorizontal, static_cast<NodeIndex>(i + 1)}));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, prefix) << "prefix parity at " << i + 1;
  }
}

using ParamTuple = std::tuple<int, int, int>;

std::string param_name(const ::testing::TestParamInfo<ParamTuple>& info) {
  const auto [a, s, p] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p);
}


class EncodingGrid : public ::testing::TestWithParam<ParamTuple> {
 protected:
  CodeParams make_params() const {
    const auto [a, s, p] = GetParam();
    return CodeParams(static_cast<std::uint32_t>(a),
                      static_cast<std::uint32_t>(s),
                      static_cast<std::uint32_t>(p));
  }
};

TEST_P(EncodingGrid, EntanglementEquationHoldsEverywhere) {
  // For every parity: p_{i,j} = d_i XOR p_{h,i} (zero block at bootstrap).
  const CodeParams params = make_params();
  pipeline::ConcurrentBlockStore store;
  ThreadPool pool(1);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  Rng rng(11);
  const std::size_t n = 200;
  const auto blocks = random_blocks(n, rng);
  enc.append_all(blocks);
  const Lattice lat = enc.lattice();

  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(n); ++i) {
    for (StrandClass cls : params.classes()) {
      const auto out =
          store.get_copy(BlockKey::parity(lat.output_edge(i, cls)));
      ASSERT_TRUE(out.has_value());
      Bytes expected = blocks[static_cast<std::size_t>(i - 1)];
      if (const auto in = lat.input_edge(i, cls)) {
        const auto in_value = store.get_copy(BlockKey::parity(*in));
        ASSERT_TRUE(in_value.has_value());
        xor_into(expected, *in_value);
      }
      ASSERT_EQ(*out, expected)
          << "node " << i << " class " << to_string(cls);
    }
  }
}

TEST_P(EncodingGrid, HeadCacheBoundedByStrandCount) {
  const CodeParams params = make_params();
  pipeline::ConcurrentBlockStore store;
  ThreadPool pool(1);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  Rng rng(13);
  for (int i = 0; i < 300; ++i)
    enc.append_all({rng.random_block(kBlockSize)});
  // Paper §IV-A: the broker keeps the last p-block of each strand.
  EXPECT_LE(enc.cached_heads(), params.total_strands());
  EXPECT_EQ(enc.cached_heads(), params.total_strands());
}

TEST_P(EncodingGrid, CrashRecoveryProducesIdenticalParities) {
  // Dropping the head cache (broker crash) must not change the encoding:
  // heads are re-fetched from the store (paper §IV-A).
  const CodeParams params = make_params();
  Rng rng(17);
  const auto blocks = random_blocks(120, rng);

  pipeline::ConcurrentBlockStore store_a;
  test::encode_into(params, kBlockSize, blocks, store_a);
  test::expect_encoding_of(params, kBlockSize, blocks, store_a);

  pipeline::ConcurrentBlockStore store_b;
  ThreadPool pool(1);
  ParallelEncoder enc_b(params, kBlockSize, &store_b, &pool);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i % 17 == 0) enc_b.drop_head_cache();  // crash every 17 appends
    enc_b.append_all({blocks[i]});
  }

  test::expect_stores_identical(store_a, store_b);
}

TEST_P(EncodingGrid, TotalBlockCount) {
  const CodeParams params = make_params();
  pipeline::ConcurrentBlockStore store;
  ThreadPool pool(1);
  ParallelEncoder enc(params, kBlockSize, &store, &pool);
  Rng rng(19);
  const std::size_t n = 100;
  for (std::size_t i = 0; i < n; ++i)
    enc.append_all({rng.random_block(kBlockSize)});
  EXPECT_EQ(store.size(), n * (1 + params.alpha()));
  EXPECT_EQ(enc.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    CodeSettings, EncodingGrid,
    ::testing::Values(ParamTuple{1, 1, 0}, ParamTuple{2, 1, 1},
                      ParamTuple{2, 2, 2}, ParamTuple{2, 2, 5},
                      ParamTuple{3, 1, 4}, ParamTuple{3, 2, 2},
                      ParamTuple{3, 2, 5}, ParamTuple{3, 3, 3},
                      ParamTuple{3, 5, 5}, ParamTuple{3, 5, 7}),
    param_name);

}  // namespace
}  // namespace aec
