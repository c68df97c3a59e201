#include "sim/ae_system.h"

#include "common/check.h"
#include "core/codec/repair_planner.h"
#include "sim/placement.h"

namespace aec::sim {

AeScheme::AeScheme(CodeParams params) : params_(std::move(params)) {}

std::string AeScheme::name() const { return params_.name(); }

double AeScheme::storage_overhead_percent() const {
  return params_.storage_overhead_percent();
}

std::uint64_t AeScheme::total_blocks(std::uint64_t n_data) const {
  return n_data * (1 + params_.alpha());
}

DisasterResult AeScheme::run_disaster(std::uint64_t n_data,
                                      const DisasterConfig& config) const {
  const std::uint32_t alpha = params_.alpha();
  const std::uint64_t wrap_unit =
      alpha >= 2 ? static_cast<std::uint64_t>(params_.s()) * params_.p()
                 : 1;
  std::uint64_t n = n_data - n_data % wrap_unit;
  AEC_CHECK_MSG(n >= 2 * wrap_unit && n >= 3,
                "AE simulation needs at least 2 lattice wraps of data, got "
                    << n_data);
  const Lattice lat(params_, n, Lattice::Boundary::kClosed);

  DisasterResult result;
  result.scheme = name();
  result.failed_fraction = config.failed_fraction;
  result.data_blocks = n;

  // --- placement + disaster ----------------------------------------------
  // kStrand is per lattice key and goes through the shared cluster
  // placement (identical to what a real ClusterStore routes); the flat
  // policies keep the paper's historical sequential-draw behaviour.
  Rng rng(config.seed);
  std::vector<LocationId> data_loc;
  std::vector<LocationId> parity_loc;
  if (config.placement == PlacementPolicy::kStrand) {
    LatticePlacement placement = place_lattice_blocks(
        params_, n, config.n_locations, config.placement, config.seed);
    data_loc = std::move(placement.data);
    parity_loc = std::move(placement.parity);
  } else {
    data_loc = place_blocks(n, config.n_locations, config.placement, rng);
    parity_loc =
        place_blocks(alpha * n, config.n_locations, config.placement, rng);
  }
  const std::vector<std::uint8_t> failed =
      draw_failed_locations(config.n_locations, config.failed_fraction, rng);

  Availability avail(params_, n);
  const auto& classes = params_.classes();
  for (std::uint64_t b = 0; b < n; ++b) {
    if (failed[data_loc[b]]) {
      avail.set(BlockKey::data(static_cast<NodeIndex>(b + 1)), false);
      ++result.data_unavailable;
    }
  }
  for (std::uint32_t c = 0; c < alpha; ++c) {
    for (std::uint64_t b = 0; b < n; ++b) {
      if (failed[parity_loc[c * n + b]])
        avail.set(BlockKey::parity(
                      Edge{classes[c], static_cast<NodeIndex>(b + 1)}),
                  false);
    }
  }

  // --- synchronous repair rounds: the shared planner's waves --------------
  // The plan *is* the repair for a table-driven simulation — no payloads
  // to execute, only the round accounting.
  const RepairPlanner planner(&lat);
  const RepairPlan plan =
      planner.plan(avail, config.maintenance == MaintenanceMode::kFull
                              ? RepairPolicy::kFull
                              : RepairPolicy::kMinimal);
  result.repair_rounds = plan.rounds();
  result.data_repaired = plan.nodes_planned;
  result.parity_repaired = plan.edges_planned;
  if (!plan.waves.empty()) {
    for (const RepairStep& step : plan.waves.front())
      if (step.key.is_data()) ++result.single_failure_repairs;
  }
  result.data_lost = result.data_unavailable - result.data_repaired;

  // --- vulnerability census (Fig 12) ---------------------------------------
  // `avail` is at the plan's fixpoint here.
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(n); ++i) {
    if (!avail.data_ok(i)) continue;
    if (!planner.node_repairable(i, avail)) ++result.vulnerable_data;
  }
  return result;
}

std::unique_ptr<RedundancyScheme> make_ae_scheme(CodeParams params) {
  return std::make_unique<AeScheme>(std::move(params));
}

}  // namespace aec::sim
