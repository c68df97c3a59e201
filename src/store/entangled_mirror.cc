#include "store/entangled_mirror.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "core/codec/repair_planner.h"

namespace aec::store {

const char* to_string(ArrayLayout layout) noexcept {
  switch (layout) {
    case ArrayLayout::kMirroring:
      return "mirroring";
    case ArrayLayout::kFullPartitionOpen:
      return "full-partition open chain";
    case ArrayLayout::kFullPartitionClosed:
      return "full-partition closed chain";
    case ArrayLayout::kStripingOpen:
      return "block striping open chain";
    case ArrayLayout::kStripingClosed:
      return "block striping closed chain";
  }
  return "?";
}

namespace {

/// True iff the down drives lose data of an AE(1) chain of `blocks` nodes
/// and edges laid round-robin over the 2n drives: chain position 2(b−1)
/// holds node b, 2(b−1)+1 holds edge b, and the position mod 2n picks the
/// drive. With blocks = n that is the drive-granular layout (node i on
/// drive 2(i−1), edge i on drive 2(i−1)+1). Data is lost iff the
/// planner's fixpoint of the §III-A repair rules leaves a residue.
bool chain_loses_data(const std::vector<std::uint8_t>& down, std::uint32_t n,
                      std::uint32_t blocks, Lattice::Boundary boundary) {
  const Lattice lat(CodeParams::single(), blocks, boundary);
  Availability avail(lat.params(), blocks);
  for (std::uint32_t d = 0; d < 2 * n; ++d) {
    if (!down[d]) continue;
    // Drive d holds chain positions d, d + 2n, …: every n-th node (d
    // even) or edge (d odd) from b = d/2 + 1.
    for (std::uint32_t b = d / 2 + 1; b <= blocks; b += n) {
      const auto node = static_cast<NodeIndex>(b);
      avail.set(d % 2 == 0 ? BlockKey::data(node)
                           : BlockKey::parity(
                                 Edge{StrandClass::kHorizontal, node}),
                false);
    }
  }
  return !RepairPlanner(&lat).plan(avail).residue.empty();
}

}  // namespace

bool drives_cause_data_loss(ArrayLayout layout,
                            const std::vector<std::uint8_t>& down,
                            std::uint32_t data_drives,
                            std::uint32_t striping_blocks) {
  const std::uint32_t n = data_drives;
  AEC_CHECK_MSG(down.size() == 2 * n, "down bitmap must cover 2n drives");

  switch (layout) {
    case ArrayLayout::kMirroring: {
      // Pair k = drives (2k, 2k+1).
      for (std::uint32_t k = 0; k < n; ++k)
        if (down[2 * k] && down[2 * k + 1]) return true;
      return false;
    }
    case ArrayLayout::kFullPartitionOpen:
      return chain_loses_data(down, n, n, Lattice::Boundary::kOpen);
    case ArrayLayout::kFullPartitionClosed:
      return chain_loses_data(down, n, n, Lattice::Boundary::kClosed);
    case ArrayLayout::kStripingOpen:
      return chain_loses_data(down, n, striping_blocks,
                              Lattice::Boundary::kOpen);
    case ArrayLayout::kStripingClosed:
      return chain_loses_data(down, n, striping_blocks,
                              Lattice::Boundary::kClosed);
  }
  AEC_CHECK_MSG(false, "unreachable layout");
  return true;
}

ReliabilityEstimate simulate_array_reliability(
    ArrayLayout layout, const DiskArrayConfig& config) {
  AEC_CHECK_MSG(config.data_drives >= 2, "need at least 2 data drives");
  AEC_CHECK_MSG(config.mttf_hours > 0 && config.repair_hours > 0 &&
                    config.mission_hours > 0,
                "rates must be positive");
  const std::uint32_t drives = 2 * config.data_drives;

  ReliabilityEstimate estimate;
  estimate.trials = config.trials;
  Rng rng(config.seed);

  struct Failure {
    double at;
    std::uint32_t drive;
  };
  std::vector<Failure> failures;
  std::vector<std::uint8_t> down(drives, 0);

  for (std::uint64_t trial = 0; trial < config.trials; ++trial) {
    // Renewal process per drive: fail ~exp(mttf), down for repair_hours.
    failures.clear();
    for (std::uint32_t d = 0; d < drives; ++d) {
      double t = rng.exponential(config.mttf_hours);
      while (t < config.mission_hours) {
        failures.push_back(Failure{t, d});
        t += config.repair_hours + rng.exponential(config.mttf_hours);
      }
    }
    std::sort(failures.begin(), failures.end(),
              [](const Failure& a, const Failure& b) { return a.at < b.at; });

    bool lost = false;
    for (const Failure& f : failures) {
      // Down set at instant f.at: drives whose repair window covers it.
      std::fill(down.begin(), down.end(), 0);
      for (const Failure& g : failures) {
        if (g.at > f.at) break;
        if (g.at + config.repair_hours > f.at) down[g.drive] = 1;
      }
      down[f.drive] = 1;
      if (drives_cause_data_loss(layout, down, config.data_drives,
                                 config.striping_blocks)) {
        lost = true;
        break;
      }
    }
    if (lost) ++estimate.losses;
  }
  estimate.loss_probability =
      static_cast<double>(estimate.losses) /
      static_cast<double>(std::max<std::uint64_t>(1, config.trials));
  return estimate;
}

}  // namespace aec::store
