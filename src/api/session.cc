#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>

#include "common/check.h"
#include "core/codec/tamper.h"
#include "core/lattice/lattice.h"
#include "obs/metrics.h"

namespace aec {

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void check_read_range(NodeIndex first, std::uint64_t count,
                      std::uint64_t size) {
  AEC_CHECK_MSG(count == 0 || (first >= 1 &&
                               static_cast<std::uint64_t>(first) - 1 + count <=
                                   size),
                "read range [" << first << ", " << first + count - 1
                               << "] outside [1, " << size << "]");
}

}  // namespace

// --- BlockStream ------------------------------------------------------------

struct BlockStream::Batch {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  std::vector<Block> results;
};

BlockStream::BlockStream(const BlockStore& store, pipeline::ThreadPool& pool,
                         NodeIndex first, std::uint64_t count,
                         std::size_t window, Recover recover)
    : store_(store),
      pool_(pool),
      first_(first),
      size_(count),
      window_(window),
      batch_(std::min(kBatchBlocks, window)),
      recover_(std::move(recover)) {
  AEC_CHECK_MSG(window_ >= 1, "stream window must be >= 1");
}

BlockStream::~BlockStream() {
  // prefetch_'s destructor then waits for the in-flight batches, whose
  // blocks go unconsumed.
  if (issued_ > consumed_) wasted_blocks_->add(issued_ - consumed_);
}

void BlockStream::fill_window() {
  while (issued_ < size_) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_, size_ - issued_));
    if (issued_ - consumed_ + n > window_) break;  // no whole batch fits
    auto batch = std::make_shared<Batch>();
    std::vector<BlockKey> keys;
    keys.reserve(n);
    for (std::size_t b = 0; b < n; ++b)
      keys.push_back(
          BlockKey::data(first_ + static_cast<NodeIndex>(issued_ + b)));
    issued_ += n;
    issued_blocks_->add(n);
    inflight_.push_back(batch);
    // The task captures only the batch (shared) and the store; errors
    // stay inside the batch, for the next() that consumes it.
    pool_.submit(prefetch_, [store = &store_, batch, keys = std::move(keys)] {
      std::vector<Block> results;
      std::exception_ptr error;
      try {
        results = store->get_blocks(keys);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard lock(batch->mu);
        batch->results = std::move(results);
        batch->error = error;
        batch->done = true;
      }
      batch->cv.notify_all();
    });
  }
}

Block BlockStream::next() {
  AEC_CHECK_MSG(consumed_ < size_, "stream read past end of run");
  fill_window();
  lookahead_depth_->observe(issued_ - consumed_);
  const std::shared_ptr<Batch>& batch = inflight_.front();
  {
    std::unique_lock lock(batch->mu);
    if (batch->done) {
      hit_blocks_->add();
    } else {
      // run_one fetches the stream's oldest batch no worker has started:
      // this one, or a later one while a worker has this one. Wait only
      // when workers hold every unfinished batch.
      const auto t0 = std::chrono::steady_clock::now();
      while (!batch->done) {
        lock.unlock();
        const bool ran = pool_.run_one(prefetch_);
        lock.lock();
        if (!ran) batch->cv.wait(lock, [&] { return batch->done; });
      }
      fetch_wait_us_->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    if (batch->error) std::rethrow_exception(batch->error);
  }
  Block payload = std::move(batch->results[front_pos_]);
  const NodeIndex i = first_ + static_cast<NodeIndex>(consumed_);
  ++front_pos_;
  ++consumed_;
  if (front_pos_ == batch->results.size()) {
    inflight_.pop_front();
    front_pos_ = 0;
  }
  if (!payload) payload = recover_(i);
  return payload;
}

// --- CodecSession -----------------------------------------------------------

CodecSession::CodecSession() {
  // Pre-register the read-path metrics so a snapshot taken before the
  // first windowed read (aectool stat --metrics) still lists the rows.
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("read.prefetch.issued");
  registry.counter("read.prefetch.hit");
  registry.counter("read.prefetch.wasted");
  registry.histogram("read.prefetch.lookahead_depth",
                     obs::Histogram::size_bounds());
  registry.histogram("read.prefetch.fetch_wait_us",
                     obs::Histogram::latency_bounds_us());
}

// --- AeSession --------------------------------------------------------------

AeSession::AeSession(std::shared_ptr<const AeCodec> codec, BlockStore* store,
                     std::size_t block_size, std::uint64_t resume_blocks,
                     pipeline::ThreadPool* pool)
    : codec_(std::move(codec)),
      store_(store),
      block_size_(block_size),
      pool_(pool),
      encoder_(codec_->params(), block_size, store, pool, resume_blocks) {}

void AeSession::append(const std::vector<Bytes>& blocks) {
  encoder_.append_all(blocks);
}

std::shared_ptr<pipeline::ParallelRepairer> AeSession::repairer() {
  const std::uint64_t n = size();
  AEC_CHECK_MSG(n > 0, "repairer(): empty session");
  std::lock_guard lock(repairer_mu_);
  // Grow only: a reader holding an older snapshot of size() gets the
  // larger lattice, whose extra nodes are just as committed.
  if (!repairer_ || repairer_->lattice().n_nodes() < n) {
    repairer_ = std::make_shared<pipeline::ParallelRepairer>(
        codec_->params(), n, block_size_, store_, pool_);
  }
  return repairer_;
}

bool AeSession::is_expected_key(const BlockKey& key) const {
  return lattice_expects(codec_->params(), size(), key);
}

std::unique_ptr<BlockStream> AeSession::open_stream(NodeIndex first,
                                                    std::uint64_t count,
                                                    std::size_t window) {
  check_read_range(first, count, size());
  const std::size_t lookahead = window > 0 ? window : kReadWindowBlocks;
  const NodeIndex end = first + static_cast<NodeIndex>(count);
  // Repair-on-read looks ahead one window, never past the run's end, so
  // a read repairs no block outside its own run.
  return std::make_unique<BlockStream>(
      *store_, *pool_, first, count, lookahead,
      [this, lookahead, end](NodeIndex i) {
        return repairer()->read_node(
            i, std::min(lookahead, static_cast<std::size_t>(end - i)));
      });
}

RepairReport AeSession::repair_all(
    std::optional<std::vector<BlockKey>> missing) {
  if (size() == 0) return {};
  return repairer()->repair_all(std::move(missing));
}

void AeSession::for_each_expected_key(
    const std::function<void(const BlockKey&)>& fn) const {
  if (size() == 0) return;
  const CodeParams& params = codec_->params();
  const Lattice lattice(params, size(), Lattice::Boundary::kOpen);
  for (NodeIndex i = 1; i <= static_cast<NodeIndex>(size()); ++i) {
    fn(BlockKey::data(i));
    for (StrandClass cls : params.classes())
      fn(BlockKey::parity(lattice.output_edge(i, cls)));
  }
}

IntegrityReport AeSession::verify_integrity() const {
  IntegrityReport report;
  if (size() == 0) return report;
  const Lattice lattice(codec_->params(), size(), Lattice::Boundary::kOpen);
  const TamperScanResult scan =
      scan_for_tampering(*store_, lattice, block_size_);
  report.inconsistent_parities = scan.inconsistent_parities.size();
  report.suspect_nodes = scan.suspect_nodes;
  return report;
}

// --- StripedSession ---------------------------------------------------------

StripedSession::StripedSession(std::shared_ptr<const StripeCodec> codec,
                               BlockStore* store, std::size_t block_size,
                               std::uint64_t resume_blocks,
                               pipeline::ThreadPool* pool)
    : codec_(std::move(codec)),
      store_(store),
      block_size_(block_size),
      pool_(pool),
      k_(codec_->data_parts()),
      m_(codec_->parity_parts()),
      count_(resume_blocks) {
  AEC_CHECK_MSG(block_size_ > 0, "block size must be positive");
  AEC_CHECK_MSG(store_ != nullptr, "session needs a block store");
  AEC_CHECK_MSG(pool_ != nullptr, "session needs a worker pool");
  if (resume_blocks > 0 && count_ % k_ != 0) heal_tail_stripe();
}

void StripedSession::heal_tail_stripe() {
  const std::uint64_t count = size();
  const std::uint64_t stripe = count / k_;
  const std::uint64_t first = stripe * k_;
  const auto committed = static_cast<std::uint32_t>(count - first);

  // Orphan payloads at the uncommitted tail positions mean an append
  // was interrupted after its data puts: the stored parities may bind
  // the orphans, committed data + zeros, or (crash mid-encode) a mix.
  std::vector<std::optional<Bytes>> orphans(k_ - committed);
  bool any_orphan = false;
  for (std::uint32_t r = committed; r < k_; ++r) {
    orphans[r - committed] =
        store_->get_copy(BlockKey::data(static_cast<NodeIndex>(first + r) + 1));
    any_orphan = any_orphan || orphans[r - committed].has_value();
  }
  if (!any_orphan) return;  // clean shutdown: parities bind committed+zeros

  PartIndexList missing;
  for (std::uint32_t r = 0; r < committed; ++r)
    if (!store_->contains(
            BlockKey::data(static_cast<NodeIndex>(first + r) + 1)))
      missing.push_back(r);

  // Recover missing committed members before the re-encode erases the
  // only redundancy that describes them. The stripe content the
  // parities bind is ambiguous, so a hypothesis (orphans first — the
  // likelier post-crash state — then zeros) is accepted only when the
  // rebuilt stripe re-encodes to every surviving parity; that needs at
  // least one parity beyond the erasure count, so e == m stays
  // unrecovered rather than risking fabricated bytes.
  if (!missing.empty()) {
    for (const bool use_orphans : {true, false}) {
      std::vector<std::optional<Bytes>> parts(k_ + m_);
      PartIndexList erased = missing;
      for (std::uint32_t r = 0; r < committed; ++r)
        parts[r] = store_->get_copy(
            BlockKey::data(static_cast<NodeIndex>(first + r) + 1));
      for (std::uint32_t r = committed; r < k_; ++r) {
        if (use_orphans && orphans[r - committed]) {
          parts[r] = orphans[r - committed];
        } else if (use_orphans) {
          erased.push_back(r);  // interrupted before this orphan's put
        } else {
          parts[r] = Bytes(block_size_, 0);
        }
      }
      std::vector<std::uint32_t> surviving_parities;
      for (std::uint32_t j = 0; j < m_; ++j) {
        parts[k_ + j] = store_->get_copy(parity_key(stripe, j));
        if (parts[k_ + j])
          surviving_parities.push_back(j);
        else
          erased.push_back(k_ + j);
      }
      std::sort(erased.begin(), erased.end());
      const std::uint32_t data_erasures = static_cast<std::uint32_t>(
          std::count_if(erased.begin(), erased.end(),
                        [&](PartIndex p) { return p < k_; }));
      if (surviving_parities.size() <= data_erasures) continue;  // unverifiable
      if (!codec_->can_repair(erased)) continue;
      const auto rebuilt = codec_->repair(parts, erased);
      if (!rebuilt) continue;

      std::vector<Bytes> data(k_);
      for (std::uint32_t r = 0; r < k_; ++r)
        data[r] = parts[r] ? *parts[r] : Bytes();
      for (std::size_t e = 0; e < erased.size(); ++e)
        if (erased[e] < k_) data[erased[e]] = (*rebuilt)[e];
      const std::vector<Bytes> check = codec_->encode(data);
      bool verified = true;
      for (const std::uint32_t j : surviving_parities)
        verified = verified && check[j] == *parts[k_ + j];
      if (!verified) continue;

      for (const std::uint32_t r : missing)
        store_->put(BlockKey::data(static_cast<NodeIndex>(first + r) + 1),
                    data[r]);
      missing.clear();
      break;
    }
  }

  // Restore the invariant (parities bind committed data + zeros) and
  // drop the orphans so later opens see a clean stripe.
  if (missing.empty()) {
    encode_stripe(stripe, count);
    for (std::uint32_t r = committed; r < k_; ++r)
      store_->erase(BlockKey::data(static_cast<NodeIndex>(first + r) + 1));
  } else {
    // Neither hypothesis verified: the stored parities describe an
    // unknowable mix of pre- and post-crash states, and any decode
    // against them would fabricate committed bytes. Drop them so the
    // stripe reports honestly unrecoverable; the orphans stay on disk
    // for forensics (they are invisible to the committed range).
    for (std::uint32_t j = 0; j < m_; ++j)
      store_->erase(parity_key(stripe, j));
  }
}

std::vector<std::optional<Bytes>> StripedSession::collect_parts(
    std::uint64_t stripe, std::uint64_t count, PartIndexList& erased) const {
  const std::uint64_t first = stripe * k_;  // 0-based data offset
  const std::uint32_t real = real_parts(stripe, count);
  std::vector<std::optional<Bytes>> parts(k_ + m_);
  for (std::uint32_t r = 0; r < k_; ++r) {
    if (r >= real) {
      parts[r] = Bytes(block_size_, 0);  // virtual tail block
      continue;
    }
    parts[r] =
        store_->get_copy(BlockKey::data(static_cast<NodeIndex>(first + r) + 1));
    if (!parts[r]) erased.push_back(r);
  }
  for (std::uint32_t j = 0; j < m_; ++j) {
    parts[k_ + j] = store_->get_copy(parity_key(stripe, j));
    if (!parts[k_ + j]) erased.push_back(k_ + j);
  }
  return parts;
}

void StripedSession::encode_stripe(std::uint64_t stripe,
                                   std::uint64_t count,
                                   const std::vector<Bytes>& fresh,
                                   std::uint64_t base) {
  const std::uint64_t first = stripe * k_;
  std::vector<Bytes> data;
  data.reserve(k_);
  for (std::uint32_t r = 0; r < k_; ++r) {
    const std::uint64_t index = first + r;
    if (index >= count) {
      data.emplace_back(block_size_, 0);  // virtual tail block
      continue;
    }
    if (index >= base && index - base < fresh.size()) {
      data.push_back(fresh[index - base]);
      continue;
    }
    auto block =
        store_->get_copy(BlockKey::data(static_cast<NodeIndex>(index) + 1));
    AEC_CHECK_MSG(block.has_value(), "encode_stripe: data block "
                                         << index + 1 << " missing");
    data.push_back(std::move(*block));
  }
  std::vector<Bytes> parities = codec_->encode(data);
  std::vector<std::pair<BlockKey, Bytes>> puts;
  puts.reserve(m_);
  for (std::uint32_t j = 0; j < m_; ++j)
    puts.emplace_back(parity_key(stripe, j), std::move(parities[j]));
  store_->put_batch(std::move(puts));
}

void StripedSession::append(const std::vector<Bytes>& blocks) {
  for (const Bytes& b : blocks)
    AEC_CHECK_MSG(b.size() == block_size_,
                  "append: block size " << b.size() << " != configured "
                                        << block_size_);
  if (blocks.empty()) return;
  const std::uint64_t count = size();
  const std::uint64_t new_count = count + blocks.size();

  // Readers may be repairing committed members of a partial tail stripe:
  // hold them off from the first write into it until the new size is
  // published (see the class comment).
  const std::uint64_t first_stripe = count / k_;
  std::unique_lock tail_lock(tail_mu_, std::defer_lock);
  if (count % k_ != 0) {
    tail_lock.lock();
    // A partial tail stripe must be healed while its tail is still
    // virtual (all-zero): its stored parities bind the old state, so a
    // missing member is unrecoverable once new payloads overwrite the
    // zero-padding the parities assumed.
    for (std::uint64_t index = first_stripe * k_; index < count; ++index) {
      const auto key = BlockKey::data(static_cast<NodeIndex>(index) + 1);
      if (store_->contains(key)) continue;
      repair_stripe(first_stripe, count);
      AEC_CHECK_MSG(store_->contains(key),
                    "append: tail stripe member d"
                        << index + 1 << " is irrecoverable; cannot extend");
    }
  }

  // Batched data puts: bounded groups through the store's batch API, so
  // a sharded store takes each shard lock once per group.
  constexpr std::size_t kPutBatch = 64;
  for (std::size_t b = 0; b < blocks.size(); b += kPutBatch) {
    const std::size_t stop = std::min(b + kPutBatch, blocks.size());
    std::vector<std::pair<BlockKey, Bytes>> puts;
    puts.reserve(stop - b);
    for (std::size_t j = b; j < stop; ++j)
      puts.emplace_back(BlockKey::data(static_cast<NodeIndex>(count + j) + 1),
                        blocks[j]);
    store_->put_batch(std::move(puts));
  }

  // Stripes are independent: encode every touched stripe across the
  // pool from the blocks handed in (only a partial tail stripe's
  // committed members are read back from the store); writes land in
  // disjoint keys.
  const std::uint64_t last_stripe = (new_count - 1) / k_;
  pipeline::ThreadPool::Group batch;
  for (std::uint64_t g = first_stripe; g <= last_stripe; ++g)
    pool_->submit(batch, [this, g, new_count, &blocks, count] {
      encode_stripe(g, new_count, blocks, count);
    });
  try {
    pool_->wait(batch);  // batch barrier (rethrows the first task error)
  } catch (...) {
    // The partial tail stripe's parities may already bind the new blocks,
    // which stay uncommitted: bind them to the committed ones again, so a
    // repair of that stripe still decodes what its readers stored.
    if (count % k_ != 0) encode_stripe(first_stripe, count);
    throw;
  }
  count_.store(new_count);
}

PartIndexList StripedSession::probe_erased(std::uint64_t stripe,
                                           std::uint64_t count) const {
  const std::uint64_t first = stripe * k_;
  const std::uint32_t real = real_parts(stripe, count);
  PartIndexList erased;
  for (std::uint32_t r = 0; r < real; ++r)
    if (!store_->contains(
            BlockKey::data(static_cast<NodeIndex>(first + r) + 1)))
      erased.push_back(r);
  for (std::uint32_t j = 0; j < m_; ++j)
    if (!store_->contains(parity_key(stripe, j))) erased.push_back(k_ + j);
  return erased;
}

StripedSession::StripeOutcome StripedSession::repair_stripe(
    std::uint64_t stripe, std::uint64_t count) {
  StripeOutcome outcome;
  // Metadata-only availability probe first: an intact stripe (the
  // common scrub case) costs index lookups, not k+m payload reads.
  if (probe_erased(stripe, count).empty()) return outcome;
  PartIndexList erased;
  const std::vector<std::optional<Bytes>> parts =
      collect_parts(stripe, count, erased);
  if (erased.empty()) return outcome;  // raced back to health

  const auto rebuilt = codec_->repair(parts, erased);
  for (std::size_t e = 0; e < erased.size(); ++e) {
    const bool is_data = erased[e] < k_;
    if (!rebuilt) {
      ++(is_data ? outcome.nodes_unrecovered : outcome.edges_unrecovered);
      continue;
    }
    const BlockKey key =
        is_data ? BlockKey::data(
                      static_cast<NodeIndex>(stripe * k_ + erased[e]) + 1)
                : parity_key(stripe, erased[e] - k_);
    store_->put(key, (*rebuilt)[e]);
    ++(is_data ? outcome.nodes_repaired : outcome.edges_repaired);
  }
  return outcome;
}

void StripedSession::repair_for_read(std::uint64_t stripe) {
  // A stripe full by this snapshot is never re-encoded again; one that
  // is partial may be, so take the append's lock and re-read the size
  // under it.
  std::unique_lock lock(tail_mu_, std::defer_lock);
  if ((stripe + 1) * k_ > size()) lock.lock();
  repair_stripe(stripe, size());
}

std::unique_ptr<BlockStream> StripedSession::open_stream(
    NodeIndex first, std::uint64_t count, std::size_t window) {
  check_read_range(first, count, size());
  return std::make_unique<BlockStream>(
      *store_, *pool_, first, count,
      window > 0 ? window : kReadWindowBlocks, [this](NodeIndex i) {
        repair_for_read(static_cast<std::uint64_t>(i - 1) / k_);
        return store_->get_block(BlockKey::data(i));
      });
}

RepairReport StripedSession::repair_all(
    std::optional<std::vector<BlockKey>> missing) {
  RepairReport report;
  const std::uint64_t count = size();
  if (count == 0) return report;
  const auto start = std::chrono::steady_clock::now();

  // Given the missing keys only the damaged stripes are visited —
  // O(damage); otherwise every stripe is probed. repair_stripe is a no-op
  // on intact stripes, so both walks repair identically.
  std::vector<std::uint64_t> targets;
  if (missing) {
    for (const BlockKey& key : *missing)
      if (is_expected_key(key)) targets.push_back(stripe_of_key(key));
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
  } else {
    targets.resize(stripes());
    std::iota(targets.begin(), targets.end(), std::uint64_t{0});
  }

  std::vector<StripeOutcome> outcomes(targets.size());
  pipeline::ThreadPool::Group pass;
  for (std::size_t t = 0; t < targets.size(); ++t)
    pool_->submit(pass, [this, &outcomes, &targets, t, count] {
      outcomes[t] = repair_stripe(targets[t], count);
    });
  pool_->wait(pass);

  for (const StripeOutcome& outcome : outcomes) {
    report.nodes_repaired_total += outcome.nodes_repaired;
    report.edges_repaired_total += outcome.edges_repaired;
    report.nodes_unrecovered += outcome.nodes_unrecovered;
    report.edges_unrecovered += outcome.edges_unrecovered;
  }
  if (report.blocks_repaired_total() > 0) {
    report.rounds = 1;  // stripes decode in a single round
    report.nodes_repaired_per_round = {report.nodes_repaired_total};
    report.edges_repaired_per_round = {report.edges_repaired_total};
  }
  report.wall_seconds = seconds_since(start);
  return report;
}

bool StripedSession::is_expected_key(const BlockKey& key) const {
  if (key.index < 1) return false;
  if (key.is_data())
    return static_cast<std::uint64_t>(key.index) <= size();
  return key.cls == StrandClass::kHorizontal &&
         static_cast<std::uint64_t>(key.index) <= stripes() * m_;
}

void StripedSession::for_each_expected_key(
    const std::function<void(const BlockKey&)>& fn) const {
  const std::uint64_t count = size();
  const std::uint64_t stripe_count = (count + k_ - 1) / k_;
  for (std::uint64_t g = 0; g < stripe_count; ++g) {
    const std::uint64_t first = g * k_;
    const std::uint32_t real = real_parts(g, count);
    for (std::uint32_t r = 0; r < real; ++r)
      fn(BlockKey::data(static_cast<NodeIndex>(first + r) + 1));
    for (std::uint32_t j = 0; j < m_; ++j) fn(parity_key(g, j));
  }
}

IntegrityReport StripedSession::verify_integrity() const {
  IntegrityReport report;
  const std::uint64_t count = size();
  const std::uint64_t stripe_count = (count + k_ - 1) / k_;
  std::vector<BlockKey> keys;
  for (std::uint64_t g = 0; g < stripe_count; ++g) {
    // One get_batch per stripe, so the scan holds one stripe at a time.
    const std::uint64_t first = g * k_;
    const std::uint32_t real = real_parts(g, count);
    keys.clear();
    for (std::uint32_t r = 0; r < real; ++r)
      keys.push_back(BlockKey::data(static_cast<NodeIndex>(first + r) + 1));
    for (std::uint32_t j = 0; j < m_; ++j) keys.push_back(parity_key(g, j));
    std::vector<std::optional<Bytes>> parts = store_->get_batch(keys);
    if (std::any_of(parts.begin(), parts.end(),
                    [](const std::optional<Bytes>& p) { return !p; }))
      continue;  // incomplete stripes are not verifiable
    std::vector<Bytes> data;
    data.reserve(k_);
    for (std::uint32_t r = 0; r < k_; ++r)  // zeros for the virtual tail
      data.push_back(r < real ? std::move(*parts[r]) : Bytes(block_size_, 0));
    const std::vector<Bytes> parities = codec_->encode(data);
    for (std::uint32_t j = 0; j < m_; ++j)
      if (parities[j] != *parts[real + j]) ++report.inconsistent_parities;
  }
  return report;
}

}  // namespace aec
