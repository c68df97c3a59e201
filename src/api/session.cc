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
  zero_ = Block::zeros(block_size_);
  if (resume_blocks > 0 && count_ % k_ != 0) heal_tail_stripe();
}

std::vector<BlockKey> StripedSession::stripe_keys(
    std::uint64_t stripe, std::uint32_t stored) const {
  std::vector<BlockKey> keys;
  keys.reserve(stored + m_);
  for (std::uint32_t r = 0; r < stored; ++r)
    keys.push_back(data_key(stripe * k_ + r));
  for (std::uint32_t j = 0; j < m_; ++j) keys.push_back(parity_key(stripe, j));
  return keys;
}

void StripedSession::check_part(const Block& part, const BlockKey& key) const {
  AEC_CHECK_MSG(!part || part.size() == block_size_,
                "stripe part " << to_string(key) << " holds " << part.size()
                               << " bytes, want " << block_size_);
}

std::vector<Block> StripedSession::read_parts(
    const std::vector<BlockKey>& keys) const {
  std::vector<Block> parts = store_->get_blocks(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) check_part(parts[i], keys[i]);
  return parts;
}

std::vector<Block> StripedSession::read_stripe(std::uint64_t stripe,
                                               std::uint64_t count) const {
  const std::uint32_t real = real_parts(stripe, count);
  std::vector<Block> read = read_parts(stripe_keys(stripe, real));
  std::vector<Block> parts(k_ + m_, zero_);
  std::move(read.begin(), read.begin() + real, parts.begin());
  std::move(read.begin() + real, read.end(), parts.begin() + k_);
  return parts;
}

void StripedSession::heal_tail_stripe() {
  const std::uint64_t count = size();
  const std::uint64_t stripe = count / k_;
  const std::uint64_t first = stripe * k_;
  const auto committed = static_cast<std::uint32_t>(count - first);

  // Orphan payloads at the uncommitted tail positions mean an append
  // was interrupted after its data puts: the stored parities may bind
  // the orphans, committed data + zeros, or (crash mid-encode) a mix.
  bool any_orphan = false;
  for (std::uint32_t r = committed; r < k_; ++r)
    any_orphan = any_orphan || store_->contains(data_key(first + r));
  if (!any_orphan) return;  // clean shutdown: parities bind committed+zeros

  PartIndexList missing;
  for (std::uint32_t r = 0; r < committed; ++r)
    if (!store_->contains(data_key(first + r))) missing.push_back(r);

  // Recover missing committed members before the re-encode erases the
  // only redundancy that describes them. The stripe content the
  // parities bind is ambiguous, so a hypothesis (orphans first — the
  // likelier post-crash state; a missing orphan is an erasure, the
  // append interrupted before its put — then zeros) is accepted only
  // when the rebuilt stripe re-encodes to every surviving parity; that
  // needs at least one parity beyond the data erasures, so e == m stays
  // unrecovered rather than risking fabricated bytes. Both hypotheses
  // work on one read of the stripe.
  std::vector<Block> committed_data;  // empty: re-encode reads the store
  if (!missing.empty()) {
    // One read of the whole stripe, orphans included. An orphan of the
    // wrong size is a put the crash cut short, which no parity binds: it
    // reads as missing. Every other part must be block_size() bytes.
    const std::vector<BlockKey> keys = stripe_keys(stripe, k_);
    std::vector<Block> stored = store_->get_blocks(keys);
    for (std::size_t p = 0; p < keys.size(); ++p) {
      if (p >= committed && p < k_ && stored[p].size() != block_size_)
        stored[p] = Block();
      check_part(stored[p], keys[p]);
    }
    const auto present = [](const Block& part) { return !!part; };
    const auto surviving_parities = static_cast<std::size_t>(
        std::count_if(stored.begin() + k_, stored.end(), present));
    for (const bool use_orphans : {true, false}) {
      std::vector<Block> parts = stored;
      if (!use_orphans)
        std::fill(parts.begin() + committed, parts.begin() + k_, zero_);
      const auto data_erasures = static_cast<std::size_t>(
          k_ - std::count_if(parts.begin(), parts.begin() + k_, present));
      if (surviving_parities <= data_erasures) continue;  // unverifiable
      if (!codec_->repair(parts)) continue;

      const std::vector<Block> check = codec_->encode(
          std::vector<Block>(parts.begin(), parts.begin() + k_));
      bool verified = true;
      for (std::uint32_t j = 0; j < m_; ++j)
        verified = verified && (!stored[k_ + j] || check[j] == stored[k_ + j]);
      if (!verified) continue;

      std::vector<std::pair<BlockKey, Block>> puts;
      for (const std::uint32_t r : missing)
        puts.emplace_back(data_key(first + r), parts[r]);
      store_->put_blocks(std::move(puts));
      committed_data.assign(parts.begin(), parts.begin() + committed);
      missing.clear();
      break;
    }
  }

  // Restore the invariant (parities bind committed data + zeros) and
  // drop the orphans so later opens see a clean stripe.
  if (missing.empty()) {
    encode_stripe(stripe, count, committed_data, first);
    for (std::uint32_t r = committed; r < k_; ++r)
      store_->erase(data_key(first + r));
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

void StripedSession::encode_stripe(std::uint64_t stripe,
                                   std::uint64_t count,
                                   const std::vector<Block>& fresh,
                                   std::uint64_t base) {
  const std::uint64_t first = stripe * k_;
  const std::uint32_t real = real_parts(stripe, count);
  std::vector<Block> data(k_, zero_);  // zeros for the virtual tail
  std::vector<BlockKey> keys;          // the members read from the store
  std::vector<std::uint32_t> slots;
  for (std::uint32_t r = 0; r < real; ++r) {
    const std::uint64_t index = first + r;
    if (index >= base && index - base < fresh.size()) {
      data[r] = fresh[index - base];
    } else {
      keys.push_back(data_key(index));
      slots.push_back(r);
    }
  }
  if (!keys.empty()) {
    std::vector<Block> stored = read_parts(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      AEC_CHECK_MSG(stored[i], "encode_stripe: data block "
                                   << to_string(keys[i]) << " missing");
      data[slots[i]] = std::move(stored[i]);
    }
  }
  std::vector<Block> parities = codec_->encode(data);
  std::vector<std::pair<BlockKey, Block>> puts;
  puts.reserve(m_);
  for (std::uint32_t j = 0; j < m_; ++j)
    puts.emplace_back(parity_key(stripe, j), std::move(parities[j]));
  store_->put_blocks(std::move(puts));
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
      const BlockKey key = data_key(index);
      if (store_->contains(key)) continue;
      repair_stripe(first_stripe, count);
      AEC_CHECK_MSG(store_->contains(key),
                    "append: tail stripe member d"
                        << index + 1 << " is irrecoverable; cannot extend");
    }
  }

  // Each block is copied once, into the Block the store keeps and the
  // stripe encodes read. Batched data puts: bounded groups through the
  // store's batch API, so a sharded store takes each shard lock once per
  // group.
  constexpr std::size_t kPutBatch = 64;
  std::vector<Block> fresh;
  fresh.reserve(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); b += kPutBatch) {
    const std::size_t stop = std::min(b + kPutBatch, blocks.size());
    std::vector<std::pair<BlockKey, Block>> puts;
    puts.reserve(stop - b);
    for (std::size_t j = b; j < stop; ++j) {
      fresh.push_back(Block::copy_of(blocks[j]));
      puts.emplace_back(data_key(count + j), fresh.back());
    }
    store_->put_blocks(std::move(puts));
  }

  // Stripes are independent: encode every touched stripe across the
  // pool from the blocks handed in (only a partial tail stripe's
  // committed members are read back from the store); writes land in
  // disjoint keys.
  const std::uint64_t last_stripe = (new_count - 1) / k_;
  pipeline::ThreadPool::Group batch;
  for (std::uint64_t g = first_stripe; g <= last_stripe; ++g)
    pool_->submit(batch, [this, g, new_count, &fresh, count] {
      encode_stripe(g, new_count, fresh, count);
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
  const std::uint32_t real = real_parts(stripe, count);
  PartIndexList erased;
  for (std::uint32_t r = 0; r < real; ++r)
    if (!store_->contains(data_key(stripe * k_ + r))) erased.push_back(r);
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
  std::vector<Block> parts = read_stripe(stripe, count);
  PartIndexList erased;
  for (PartIndex p = 0; p < k_ + m_; ++p)
    if (!parts[p]) erased.push_back(p);
  if (erased.empty()) return outcome;  // raced back to health

  const bool repaired = codec_->repair(parts);
  std::vector<std::pair<BlockKey, Block>> puts;
  for (const PartIndex p : erased) {
    const bool is_data = p < k_;
    if (!repaired) {
      ++(is_data ? outcome.nodes_unrecovered : outcome.edges_unrecovered);
      continue;
    }
    puts.emplace_back(
        is_data ? data_key(stripe * k_ + p) : parity_key(stripe, p - k_),
        parts[p]);
    ++(is_data ? outcome.nodes_repaired : outcome.edges_repaired);
  }
  if (repaired) store_->put_blocks(std::move(puts));
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
  for (std::uint64_t g = 0; g < stripe_count; ++g)
    for (const BlockKey& key : stripe_keys(g, real_parts(g, count))) fn(key);
}

IntegrityReport StripedSession::verify_integrity() const {
  IntegrityReport report;
  const std::uint64_t count = size();
  const std::uint64_t stripe_count = (count + k_ - 1) / k_;
  for (std::uint64_t g = 0; g < stripe_count; ++g) {
    // One read per stripe, so the scan holds one stripe at a time.
    const std::vector<Block> parts = read_stripe(g, count);
    if (std::any_of(parts.begin(), parts.end(),
                    [](const Block& part) { return !part; }))
      continue;  // incomplete stripes are not verifiable
    const std::vector<Block> parities = codec_->encode(
        std::vector<Block>(parts.begin(), parts.begin() + k_));
    for (std::uint32_t j = 0; j < m_; ++j)
      if (parities[j] != parts[k_ + j]) ++report.inconsistent_parities;
  }
  return report;
}

}  // namespace aec
