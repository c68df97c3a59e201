#include "pipeline/parallel_encoder.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/xor_engine.h"
#include "obs/trace.h"

namespace aec::pipeline {

namespace {

obs::Counter* blocks_counter() {
  return obs::MetricsRegistry::global().counter("encode.blocks");
}
obs::Counter* batches_counter() {
  return obs::MetricsRegistry::global().counter("encode.batches");
}
obs::Histogram* batch_us_histogram() {
  return obs::MetricsRegistry::global().histogram(
      "encode.batch_us", obs::Histogram::latency_bounds_us());
}
obs::Histogram* batch_blocks_histogram() {
  return obs::MetricsRegistry::global().histogram(
      "encode.batch_blocks", obs::Histogram::size_bounds());
}

}  // namespace

ParallelEncoder::ParallelEncoder(CodeParams params, std::size_t block_size,
                                 BlockStore* store, ThreadPool* pool,
                                 std::uint64_t resume_count)
    : params_(std::move(params)),
      block_size_(block_size),
      store_(store),
      count_(resume_count),
      pool_(pool),
      blocks_metric_(blocks_counter()),
      batches_metric_(batches_counter()),
      batch_us_metric_(batch_us_histogram()),
      batch_blocks_metric_(batch_blocks_histogram()) {
  AEC_CHECK_MSG(block_size_ > 0, "block size must be positive");
  AEC_CHECK_MSG(store_ != nullptr, "encoder needs a block store");
  AEC_CHECK_MSG(pool_ != nullptr, "encoder needs a worker pool");
  for (StrandClass cls : params_.classes())
    heads_[static_cast<std::size_t>(cls)].resize(params_.strands_of(cls));
}

void ParallelEncoder::resolve_head(const Lattice& lat, NodeIndex i,
                                   StrandClass cls) {
  Bytes& slot = head_slot(cls, lat.strand_id(i, cls));
  if (!slot.empty()) return;
  if (auto in = lat.input_edge(i, cls)) {
    std::optional<Bytes> stored = store_->get_copy(BlockKey::parity(*in));
    AEC_CHECK_MSG(stored.has_value(),
                  "encoder head recovery: parity " << to_string(
                      BlockKey::parity(*in)) << " missing from store");
    slot = std::move(*stored);
  } else {
    slot.assign(block_size_, 0);  // strand bootstrap
  }
}

std::vector<EncodeResult> ParallelEncoder::append_all(
    const std::vector<Bytes>& blocks) {
  for (const Bytes& b : blocks)
    AEC_CHECK_MSG(b.size() == block_size_,
                  "append_all: block size " << b.size() << " != configured "
                                            << block_size_);
  std::vector<EncodeResult> results(blocks.size());
  if (blocks.empty()) return results;
  obs::TraceSpan span("encode.batch");  // a0 = blocks, a1 = bytes
  span.set_args(blocks.size(), blocks.size() * block_size_);
  const auto batch_start = std::chrono::steady_clock::now();
  const NodeIndex first = static_cast<NodeIndex>(count_) + 1;
  const NodeIndex last = static_cast<NodeIndex>(count_ + blocks.size());
  const Lattice lat(params_, static_cast<std::uint64_t>(last),
                    Lattice::Boundary::kOpen);

  // Coordinator fills missing head slots (the first window node of a
  // strand names the recovery edge) and pre-shapes the results so worker
  // writes land in disjoint, pre-allocated slots.
  // Meanwhile bucket the window per strand instance: buckets[cls][id]
  // lists block offsets in node order — one bucket, one task, one owner.
  std::vector<std::vector<std::uint32_t>> buckets[3];
  for (StrandClass cls : params_.classes())
    buckets[static_cast<std::size_t>(cls)].resize(params_.strands_of(cls));
  for (NodeIndex i = first; i <= last; ++i) {
    const auto j = static_cast<std::size_t>(i - first);
    results[j].index = i;
    results[j].parities.resize(params_.classes().size());
    for (StrandClass cls : params_.classes()) {
      resolve_head(lat, i, cls);
      buckets[static_cast<std::size_t>(cls)][lat.strand_id(i, cls)]
          .push_back(static_cast<std::uint32_t>(j));
    }
  }

  // One task per strand instance: walk the strand's XOR chain across the
  // whole window (§V-B partial writes — helical parities of later
  // columns computed early; the per-strand order is all that matters).
  for (StrandClass cls : params_.classes()) {
    // classes() is the [H, RH, LH] prefix, so a parity's slot in
    // EncodeResult::parities is the class value itself.
    const auto slot = static_cast<std::size_t>(cls);
    for (const std::vector<std::uint32_t>& bucket : buckets[slot]) {
      if (bucket.empty()) continue;
      pool_->submit([this, &lat, &blocks, &results, &bucket, cls, slot,
                    first] {
        // Parity puts flushed in bounded batches: fewer store lock
        // round trips, at most kPutBatch head copies buffered.
        constexpr std::size_t kPutBatch = 64;
        std::vector<std::pair<BlockKey, Bytes>> puts;
        puts.reserve(std::min<std::size_t>(bucket.size(), kPutBatch));
        Bytes& head =
            head_slot(cls, lat.strand_id(first + bucket.front(), cls));
        for (const std::uint32_t j : bucket) {
          const NodeIndex i = first + j;
          xor_into(head, blocks[j]);
          const Edge out = lat.output_edge(i, cls);
          puts.emplace_back(BlockKey::parity(out), head);
          results[j].parities[slot] = out;
          if (puts.size() >= kPutBatch) {
            store_->put_batch(std::move(puts));
            puts.clear();
          }
        }
        if (!puts.empty()) store_->put_batch(std::move(puts));
      });
    }
  }

  // Data blocks have no ordering constraints at all: chunk them evenly.
  const std::size_t chunk_count =
      std::min(pool_->thread_count(), blocks.size());
  const std::size_t chunk = (blocks.size() + chunk_count - 1) / chunk_count;
  for (std::size_t begin = 0; begin < blocks.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, blocks.size());
    pool_->submit([this, &blocks, first, begin, end] {
      constexpr std::size_t kPutBatch = 64;
      std::vector<std::pair<BlockKey, Bytes>> puts;
      for (std::size_t b = begin; b < end; b += kPutBatch) {
        const std::size_t stop = std::min(b + kPutBatch, end);
        puts.clear();
        for (std::size_t j = b; j < stop; ++j)
          puts.emplace_back(BlockKey::data(first + static_cast<NodeIndex>(j)),
                            blocks[j]);
        store_->put_batch(std::move(puts));
        puts.clear();  // moved-from: restore a known-empty state
      }
    });
  }

  pool_->wait_idle();  // batch barrier (rethrows the first task error)
  count_ = static_cast<std::uint64_t>(last);

  batch_us_metric_->observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - batch_start)
          .count()));
  batch_blocks_metric_->observe(blocks.size());
  blocks_metric_->add(blocks.size());
  batches_metric_->add();
  return results;
}

Lattice ParallelEncoder::lattice() const {
  AEC_CHECK_MSG(count_ > 0, "lattice(): nothing encoded yet");
  return Lattice(params_, count_, Lattice::Boundary::kOpen);
}

std::size_t ParallelEncoder::cached_heads() const noexcept {
  std::size_t cached = 0;
  for (const auto& class_heads : heads_)
    for (const Bytes& slot : class_heads)
      if (!slot.empty()) ++cached;
  return cached;
}

void ParallelEncoder::drop_head_cache() {
  for (auto& class_heads : heads_)
    for (Bytes& slot : class_heads) slot.clear();
}

}  // namespace aec::pipeline
