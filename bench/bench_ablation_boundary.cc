// Ablation: open vs closed lattices (§IV-B-1's open/closed chains,
// generalized to α-entanglements).
//
// Blocks at open-lattice extremities have less redundancy (shorter
// strands on one side). This bench erases the same random fraction of
// blocks in an open and a closed lattice at byte level and reports the
// loss, plus where in the lattice the open-boundary losses concentrate.
#include <cstdio>

#include "common/rng.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/parallel_repairer.h"
#include "pipeline/thread_pool.h"
#include "sim/runner.h"
#include "sim/schemes.h"

namespace {

struct Outcome {
  std::uint64_t lost = 0;
  std::uint64_t lost_in_first_tenth = 0;
  std::uint64_t lost_in_last_tenth = 0;
};

Outcome run_open(const aec::CodeParams& params, std::uint64_t n,
                 double rate, std::uint64_t seed) {
  using namespace aec;
  std::vector<Bytes> blocks;
  blocks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    blocks.push_back(Bytes{static_cast<std::uint8_t>(i)});
  InMemoryBlockStore store;
  pipeline::ThreadPool pool(1);
  pipeline::ParallelEncoder encoder(params, 1, &store, &pool);
  encoder.append_all(blocks);
  pipeline::ParallelRepairer repairer(params, n, 1, &store, &pool);
  Rng rng(seed);
  const Lattice& lat = repairer.lattice();
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(n); ++i) {
    if (rng.bernoulli(rate)) store.erase(BlockKey::data(i));
    for (StrandClass cls : params.classes())
      if (rng.bernoulli(rate))
        store.erase(BlockKey::parity(lat.output_edge(i, cls)));
  }
  repairer.repair_all();
  Outcome outcome;
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(n); ++i) {
    if (store.contains(BlockKey::data(i))) continue;
    ++outcome.lost;
    if (static_cast<std::uint64_t>(i) <= n / 10)
      ++outcome.lost_in_first_tenth;
    if (static_cast<std::uint64_t>(i) > n - n / 10)
      ++outcome.lost_in_last_tenth;
  }
  return outcome;
}

}  // namespace

int main() {
  using namespace aec;
  using namespace aec::sim;

  const std::uint64_t n = std::min<std::uint64_t>(
      blocks_from_env(20000), 100000);  // byte-level: keep it moderate
  std::printf("open vs closed lattice, AE(2,2,5), %llu blocks, "
              "40%% random block erasures\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%-8s %10s %18s %18s\n", "lattice", "lost/run",
              "lost in first 10%", "lost in last 10%");

  const CodeParams params(2, 2, 5);
  Outcome open_total;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Outcome o = run_open(params, n, 0.40, seed);
    open_total.lost += o.lost;
    open_total.lost_in_first_tenth += o.lost_in_first_tenth;
    open_total.lost_in_last_tenth += o.lost_in_last_tenth;
  }
  std::printf("%-8s %10.1f %18.1f %18.1f\n", "open",
              static_cast<double>(open_total.lost) / 10.0,
              static_cast<double>(open_total.lost_in_first_tenth) / 10.0,
              static_cast<double>(open_total.lost_in_last_tenth) / 10.0);

  // Closed comparison via the availability simulator (same erasure rate:
  // 30 % of 100 locations down ≈ 30 % of blocks down).
  const auto scheme = make_scheme("AE(2,2,5)");
  std::uint64_t closed_lost = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DisasterConfig c;
    c.failed_fraction = 0.40;
    c.seed = seed;
    closed_lost += scheme->run_disaster(n, c).data_lost;
  }
  std::printf("%-8s %10.1f %18s %18s\n", "closed",
              static_cast<double>(closed_lost) / 5.0, "-", "-");
  std::printf("\n(per-run averages; open extremities — strand heads and "
              "tails — take a disproportionate share of the loss, the "
              "paper's motivation for closed chains)\n");
  return 0;
}
