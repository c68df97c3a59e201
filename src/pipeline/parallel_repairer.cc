#include "pipeline/parallel_repairer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/xor_engine.h"
#include "obs/trace.h"

namespace aec::pipeline {

namespace {

obs::Counter* waves_counter() {
  return obs::MetricsRegistry::global().counter("repair.waves");
}
obs::Counter* steps_counter() {
  return obs::MetricsRegistry::global().counter("repair.steps");
}
obs::Histogram* wave_us_histogram() {
  return obs::MetricsRegistry::global().histogram(
      "repair.wave_us", obs::Histogram::latency_bounds_us());
}
obs::Histogram* wave_width_histogram() {
  return obs::MetricsRegistry::global().histogram(
      "repair.wave_width", obs::Histogram::size_bounds());
}

}  // namespace

ParallelRepairer::ParallelRepairer(CodeParams params, std::uint64_t n_nodes,
                                   std::size_t block_size, BlockStore* store,
                                   ThreadPool* pool)
    : lattice_(std::move(params), n_nodes, Lattice::Boundary::kOpen),
      block_size_(block_size),
      store_(store),
      pool_(pool),
      waves_metric_(waves_counter()),
      steps_metric_(steps_counter()),
      wave_us_metric_(wave_us_histogram()),
      wave_width_metric_(wave_width_histogram()) {
  AEC_CHECK_MSG(store_ != nullptr, "repairer needs a block store");
  AEC_CHECK_MSG(block_size_ > 0, "block size must be positive");
  AEC_CHECK_MSG(pool_ != nullptr, "repairer needs a worker pool");
}

void ParallelRepairer::execute_wave(const std::vector<RepairStep>& wave) {
  obs::TraceSpan span("repair.wave");  // a0 = wave width (steps)
  span.set_args(wave.size());
  const auto wave_start = std::chrono::steady_clock::now();
  // Contiguous chunks, one task each; small waves keep the dispatch
  // overhead at one task per step at most.
  const std::size_t chunk_count =
      std::min(pool_->thread_count(), wave.size());
  const std::size_t chunk = (wave.size() + chunk_count - 1) / chunk_count;
  ThreadPool::Group group;
  for (std::size_t begin = 0; begin < wave.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, wave.size());
    pool_->submit(group,
                  [this, &wave, begin, end] { execute_steps(wave, begin, end); });
  }
  pool_->wait(group);  // wave barrier (rethrows the first task error)
  wave_us_metric_->observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wave_start)
          .count()));
  wave_width_metric_->observe(wave.size());
  waves_metric_->add();
  steps_metric_->add(wave.size());
}

void ParallelRepairer::execute_steps(const std::vector<RepairStep>& wave,
                                     std::size_t begin, std::size_t end) {
  // Bounded sub-batches through the store's batch API: one read and one
  // write round trip per kBatch steps (a sharded store takes each shard
  // lock once per batch) instead of two reads + one write per step.
  // Safe within a wave: the planner chose every input against wave-start
  // availability, so no batch reads a block another wave-task writes.
  constexpr std::size_t kBatch = 64;
  std::vector<BlockKey> keys;
  std::vector<RepairStepInputs> inputs;
  std::vector<std::pair<BlockKey, Block>> repaired;
  for (std::size_t b = begin; b < end; b += kBatch) {
    const std::size_t stop = std::min(b + kBatch, end);
    keys.clear();
    inputs.clear();
    repaired.clear();
    for (std::size_t j = b; j < stop; ++j) {
      inputs.push_back(repair_step_inputs(lattice_, wave[j]));
      if (inputs.back().input) keys.push_back(*inputs.back().input);
      keys.push_back(inputs.back().other);
    }
    std::vector<Block> payloads = store_->get_blocks(keys);
    std::size_t p = 0;
    const auto take = [&](const BlockKey& key) -> Block {
      AEC_CHECK_MSG(payloads[p], "repair step input "
                                     << to_string(key)
                                     << " missing from store");
      AEC_CHECK_MSG(payloads[p].size() == block_size_,
                    "repair step input " << to_string(key) << " holds "
                                         << payloads[p].size()
                                         << " bytes, want " << block_size_);
      return std::move(payloads[p++]);
    };
    for (std::size_t j = b; j < stop; ++j) {
      const RepairStepInputs& in = inputs[j - b];
      const Block input = in.input ? take(*in.input) : Block();
      Block other = take(in.other);
      // Zero input: the output is `other` itself, shared.
      repaired.emplace_back(wave[j].key,
                            input ? xor_of(input, other) : std::move(other));
    }
    store_->put_blocks(std::move(repaired));
    repaired.clear();  // moved-from: restore a known-empty state
  }
}

void ParallelRepairer::execute_plan(const RepairPlan& plan) {
  for (const std::vector<RepairStep>& wave : plan.waves) execute_wave(wave);
}

RepairReport ParallelRepairer::repair_all(
    std::optional<std::vector<BlockKey>> missing) {
  const RepairPlanner planner(&lattice_);
  return execute_repair_plan(
      planner, *store_, std::move(missing),
      [this](const std::vector<RepairStep>& wave) { execute_wave(wave); });
}

void ParallelRepairer::repair_window(const RepairPlanner& planner,
                                     NodeIndex first, std::size_t lookahead) {
  const auto last = static_cast<NodeIndex>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(first) - 1 + lookahead, lattice_.n_nodes()));
  RepairPlan plan;
  std::vector<RepairStep>& wave = plan.waves.emplace_back();
  for (NodeIndex k = first; k <= last; ++k) {
    if (store_->contains(BlockKey::data(k))) continue;  // metadata only
    if (auto step = planner.plan_node_repair(*store_, k))
      wave.push_back(*step);
  }
  if (wave.empty()) return;
  execute_plan(plan);
}

Block ParallelRepairer::read_node(NodeIndex i, std::size_t lookahead) {
  AEC_CHECK_MSG(lattice_.is_valid_node(i), "invalid node " << i);
  if (Block direct = store_->get_block(BlockKey::data(i))) return direct;

  const RepairPlanner planner(&lattice_);
  if (lookahead > 1) repair_window(planner, i, lookahead);
  // Empty when the window wave already repaired d_i.
  const auto plan = planner.plan_for_target(*store_, i);
  if (!plan) return Block();
  execute_plan(*plan);
  Block repaired = store_->get_block(BlockKey::data(i));
  AEC_CHECK_MSG(repaired,
                "read_node: plan for d" << i << " did not materialize it");
  return repaired;
}

}  // namespace aec::pipeline
