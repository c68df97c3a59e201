// Property-style sweeps of the repair engine across code settings and
// erasure rates: everything the repairer rebuilds must match ground truth,
// low erasure rates must be fully recovered, and fault tolerance must be
// monotone in α.
#include <gtest/gtest.h>

#include <tuple>

#include "ae_test_util.h"
#include "common/rng.h"

namespace aec {
namespace {

constexpr std::size_t kBlockSize = 16;
constexpr std::uint64_t kNodes = 500;

using Param = std::tuple<int, int, int, int>;  // alpha, s, p, loss_percent

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [a, s, p, r] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p) + "_loss" + std::to_string(r);
}


class RepairSweep : public ::testing::TestWithParam<Param> {};

TEST_P(RepairSweep, RepairsAreCorrectAndCounted) {
  const auto [a, s, p, loss_percent] = GetParam();
  const CodeParams params(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(p));
  pipeline::ConcurrentBlockStore store;
  Rng rng(static_cast<std::uint64_t>(a * 10007 + s * 101 + p * 13 +
                                     loss_percent));
  std::vector<Bytes> truth;
  for (std::uint64_t i = 0; i < kNodes; ++i)
    truth.push_back(rng.random_block(kBlockSize));
  test::encode_into(params, kBlockSize, truth, store);

  pipeline::ThreadPool pool(1);
  pipeline::ParallelRepairer repairer(params, kNodes, kBlockSize, &store,
                                      &pool);
  const Lattice& lat = repairer.lattice();
  const double rate = loss_percent / 100.0;
  std::uint64_t erased_nodes = 0;
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(kNodes); ++i) {
    if (rng.bernoulli(rate)) {
      if (store.erase(BlockKey::data(i))) ++erased_nodes;
    }
    for (StrandClass cls : params.classes())
      if (rng.bernoulli(rate))
        store.erase(BlockKey::parity(lat.output_edge(i, cls)));
  }

  const RepairReport report = repairer.repair_all();

  // Count conservation.
  EXPECT_EQ(report.nodes_repaired_total + report.nodes_unrecovered,
            erased_nodes);

  // Correctness of every repaired (and untouched) data block.
  std::uint64_t present = 0;
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(kNodes); ++i) {
    if (const auto value = store.get_copy(BlockKey::data(i))) {
      ++present;
      ASSERT_EQ(*value, truth[static_cast<std::size_t>(i - 1)])
          << "node " << i;
    }
  }
  EXPECT_EQ(present + report.nodes_unrecovered, kNodes);

  // At benign loss rates the lattice must recover completely.
  if (loss_percent <= 5 && a >= 2) {
    EXPECT_EQ(report.nodes_unrecovered, 0u)
        << params.name() << " at " << loss_percent << "%";
  }

  // Fixpoint really is a fixpoint: a second pass repairs nothing.
  const RepairReport again = repairer.repair_all();
  EXPECT_EQ(again.nodes_repaired_total, 0u);
  EXPECT_EQ(again.edges_repaired_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairSweep,
    ::testing::Values(
        Param{1, 1, 0, 5}, Param{1, 1, 0, 15}, Param{1, 1, 0, 30},
        Param{2, 1, 2, 5}, Param{2, 2, 2, 15}, Param{2, 2, 5, 5},
        Param{2, 2, 5, 15}, Param{2, 2, 5, 30}, Param{2, 3, 4, 20},
        Param{3, 1, 4, 15}, Param{3, 2, 2, 20}, Param{3, 2, 5, 5},
        Param{3, 2, 5, 15}, Param{3, 2, 5, 30}, Param{3, 2, 5, 50},
        Param{3, 3, 3, 25}, Param{3, 3, 7, 25}, Param{3, 5, 5, 35},
        Param{3, 4, 6, 40}, Param{3, 5, 10, 30}),
    param_name);

TEST(RepairMonotonicity, HigherAlphaNeverLosesMoreData) {
  // Same data-loss pattern over the same node count: AE(3,2,5) must not
  // lose more data blocks than AE(2,2,5), which must not lose more than
  // AE(1). (Erasures are applied to data blocks and to the H parities that
  // all three codes share structurally.)
  const std::uint64_t n = 600;
  std::vector<std::uint64_t> losses;
  for (auto params : {CodeParams::single(), CodeParams(2, 2, 5),
                      CodeParams(3, 2, 5)}) {
    test::EncodedLattice f(params, n, kBlockSize, 5);
    Rng eraser(1234);  // identical stream for every code
    for (NodeIndex i = 1; i <= static_cast<NodeIndex>(n); ++i) {
      const bool kill_data = eraser.bernoulli(0.3);
      const bool kill_parity = eraser.bernoulli(0.3);
      if (kill_data) f.store.erase(BlockKey::data(i));
      if (kill_parity)
        f.store.erase(
            BlockKey::parity(Edge{StrandClass::kHorizontal, i}));
    }
    losses.push_back(f.repair_all().nodes_unrecovered);
  }
  EXPECT_GE(losses[0], losses[1]);
  EXPECT_GE(losses[1], losses[2]);
  EXPECT_GT(losses[0], 0u);   // AE(1) certainly loses something at 30 %
  EXPECT_EQ(losses[2], 0u);   // AE(3) shrugs this pattern off
}

}  // namespace
}  // namespace aec
