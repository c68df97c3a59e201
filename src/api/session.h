// CodecSession — one growing sequence of fixed-size data blocks kept
// redundant in a BlockStore through a Codec, executed on an Engine's
// shared worker pool.
//
// This is the dispatch point that unifies the code families behind the
// archive: the AE session streams blocks into the entanglement lattice
// (ParallelEncoder + ParallelRepairer over the shared pool — a 1-thread
// engine reproduces the serial byte stream exactly) and is the only way
// AE is encoded and repaired, while the striped session groups blocks
// into the fixed-width stripes of a StripeCodec (RS, REP), whose
// parities live in a flat parity index space.
//
// Concurrency contract: one writer plus any number of readers. One
// thread at a time appends (the writer); any number of threads consume
// streams from open_stream() beside it, each stream on one thread, and
// their repair-on-read persists what it repairs. size() is safe from any
// thread and advances only once an append is wholly in the store, so a
// stream opened within [1, size()] never meets half-written blocks.
// repair_all() and verify_integrity() run exclusively — with no append
// and no open stream (Archive enforces this for its sessions). Every
// barrier is a per-operation completion group on the shared pool, so a
// reader's repair wave and a writer's batch never wait for each other's
// tasks.
//
// Key layout (shared with FileBlockStore's on-disk naming, both layouts):
//   data block i        — BlockKey::data(i), i in [1, size()]
//   AE parity           — BlockKey::parity(output edge), lattice naming
//   striped parity j of stripe g (0-based)
//                       — BlockKey{kParity, kHorizontal, g·m + j + 1}
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "api/codec.h"
#include "common/block.h"
#include "common/bytes.h"
#include "core/codec/block_key.h"
#include "core/codec/block_store.h"
#include "core/codec/repair_planner.h"
#include "obs/metrics.h"
#include "pipeline/parallel_encoder.h"
#include "pipeline/parallel_repairer.h"
#include "pipeline/thread_pool.h"

namespace aec {

/// Outcome of a session integrity scan: stored redundancy re-derived and
/// compared against the stored blocks (paper §III-B anti-tampering for
/// AE; stripe re-encode for RS/REP).
struct IntegrityReport {
  /// Parity/copy blocks inconsistent with the present blocks they bind.
  std::uint64_t inconsistent_parities = 0;
  /// Data blocks whose every verifiable parity disagrees — the usual
  /// signature of a tampered block (AE sessions only).
  std::vector<NodeIndex> suspect_nodes;
};

/// Ordered read of data blocks [first, first + count) — the one way a
/// session reads (opened by CodecSession::open_stream). It yields
/// Blocks: references to what the store holds, so an in-memory store's
/// bytes reach the consumer uncopied. Healthy blocks are prefetched up
/// to `window` ahead of the consumer as whole get_blocks() calls on the
/// engine pool, so store I/O (one file open/read per block on
/// file/sharded/cluster backends) overlaps with the consumer's send and
/// repair work — the pipelined decoding idea
/// of RapidRAID (PAPERS.md) applied to plain reads. A block the prefetch
/// found missing falls back to the session's repair-on-read, whose
/// repairs are persisted. Window 1 fetches and repairs one block at a
/// time: the per-block reference.
///
/// The reader fetches its own next batch when no worker has started it:
/// a next() that finds its batch unfinished takes the stream's oldest
/// batch still queued off the pool (ThreadPool::run_one) and fetches it
/// on its own thread, so a read never sleeps behind other operations'
/// encode or repair tasks; it waits only while a worker is fetching the
/// batch it needs. Each batch is fetched exactly once, by a worker or
/// by the reader. Encode batches and repair waves stay on the workers.
///
/// Refill is whole batches only (the run's tail excepted): the window is
/// topped up once a full batch fits, never block by block, so a run
/// longer than its window keeps batch-sized pool tasks instead of
/// trickling out one-block ones as the consumer advances.
///
/// Concurrency/error model: each in-flight batch owns its own
/// mutex/cv/result slots inside a shared_ptr; batch tasks touch only
/// that batch and the store, never the stream, so destroying the stream
/// mid-run is safe (the stream's completion group still waits for
/// in-flight batches so the store cannot be torn down under a task). A
/// store exception is captured in its batch and rethrown from the next()
/// that consumes it, by the reader that asked — no other operation waits
/// on the stream's group. The session (and its store) must outlive the
/// stream, and a stream has one consumer thread.
class BlockStream {
 public:
  /// Repair-on-read fallback for data block i (null = irrecoverable).
  using Recover = std::function<Block(NodeIndex)>;

  /// Blocks per get_blocks() dispatch, clamped to the window.
  static constexpr std::size_t kBatchBlocks = 16;

  /// Prefetch tasks on `pool` read the (thread-safe) store while the
  /// consumer's repair fallback writes it. `window` must be ≥ 1.
  BlockStream(const BlockStore& store, pipeline::ThreadPool& pool,
              NodeIndex first, std::uint64_t count, std::size_t window,
              Recover recover);
  ~BlockStream();

  BlockStream(const BlockStream&) = delete;
  BlockStream& operator=(const BlockStream&) = delete;

  /// The next block of the run (null = irrecoverable). Tops the window
  /// up, then fetches or waits for the front batch (see the class
  /// comment); rethrows a store exception captured by that batch's
  /// fetch. Must not be called past the end of the run.
  Block next();

  std::uint64_t size() const noexcept { return size_; }
  std::uint64_t consumed() const noexcept { return consumed_; }
  bool exhausted() const noexcept { return consumed_ == size_; }
  std::size_t window() const noexcept { return window_; }

 private:
  struct Batch;

  /// Issues whole batches while one fits in the window (a shorter final
  /// batch for the run's tail).
  void fill_window();

  const BlockStore& store_;
  pipeline::ThreadPool& pool_;
  NodeIndex first_;
  std::uint64_t size_;
  std::size_t window_;
  std::size_t batch_;  // kBatchBlocks clamped to the window
  Recover recover_;
  std::uint64_t issued_ = 0;    // blocks dispatched into batches
  std::uint64_t consumed_ = 0;  // blocks returned by next()
  std::deque<std::shared_ptr<Batch>> inflight_;
  std::size_t front_pos_ = 0;  // next result slot in inflight_.front()

  /// Global-registry metrics, resolved once at construction:
  /// issued/hit/wasted are in blocks (hit = batch already complete when
  /// next() asked for it, wasted = fetched but never consumed);
  /// lookahead_depth samples issued-minus-consumed at each next();
  /// fetch_wait_us samples only the next() calls that found their batch
  /// unfinished: the time until it was, whether the reader fetched
  /// batches itself meanwhile or waited on a worker. So a batch the
  /// reader fetched itself counts like one it waited for: issued, one
  /// fetch_wait_us sample, and hits for its other blocks.
  obs::Counter* issued_blocks_ =
      obs::MetricsRegistry::global().counter("read.prefetch.issued");
  obs::Counter* hit_blocks_ =
      obs::MetricsRegistry::global().counter("read.prefetch.hit");
  obs::Counter* wasted_blocks_ =
      obs::MetricsRegistry::global().counter("read.prefetch.wasted");
  obs::Histogram* lookahead_depth_ = obs::MetricsRegistry::global().histogram(
      "read.prefetch.lookahead_depth", obs::Histogram::size_bounds());
  obs::Histogram* fetch_wait_us_ = obs::MetricsRegistry::global().histogram(
      "read.prefetch.fetch_wait_us", obs::Histogram::latency_bounds_us());
  /// The in-flight batches; declared last, so its destructor waits for
  /// them before any other member goes.
  pipeline::ThreadPool::Group prefetch_;
};

class CodecSession {
 public:
  /// Registers the read-path instrumentation (read.prefetch.*) up front,
  /// so metrics censuses (aectool stat --metrics) show the rows even
  /// before the first windowed read — zero-valued idle instrumentation
  /// is information too (see obs/metrics.h).
  CodecSession();
  virtual ~CodecSession() = default;

  virtual const Codec& codec() const = 0;
  virtual std::size_t block_size() const = 0;

  /// Data blocks appended so far (safe from any thread).
  virtual std::uint64_t size() const = 0;

  /// Appends data blocks (each exactly block_size bytes): stores them
  /// and the redundancy the codec derives for them. On an exception
  /// size() has not advanced, and a later append (of the same or other
  /// blocks) re-encodes the same positions.
  virtual void append(const std::vector<Bytes>& blocks) = 0;

  /// Opens the read of data blocks [first, first+count) within
  /// [1, size()] — the session's only read (see BlockStream): healthy
  /// blocks are prefetched up to `window` ahead of consumption through
  /// the engine pool, overlapping store I/O with copy-out and repair
  /// work; a missing block is repaired through the codec (an AE session
  /// repairs every one-XOR loss of the next `window` blocks of the run
  /// in one wave), and the repairs are persisted. The stream yields a
  /// null Block for an irrecoverable block. `window` = 0 uses
  /// kReadWindowBlocks; window 1 repairs each lost block on its own.
  virtual std::unique_ptr<BlockStream> open_stream(
      NodeIndex first, std::uint64_t count, std::size_t window = 0) = 0;

  /// Lookahead window (blocks) of a read that passes window = 0.
  static constexpr std::size_t kReadWindowBlocks = 64;

  /// Repairs everything recoverable; reports the paper's round/residue
  /// accounting (striped codecs always finish in one round). Given
  /// `missing` — every missing key in block order, as the health census
  /// walks them (obs::HealthMonitor::missing_keys) — the pass visits only
  /// the damage, O(damage); without it, it probes the store for every
  /// expected key. Keys the session does not expect are ignored, and the
  /// repairs are the same either way.
  virtual RepairReport repair_all(
      std::optional<std::vector<BlockKey>> missing = std::nullopt) = 0;

  /// Visits every key an intact session of the current size stores, in
  /// a deterministic order (damage injection / census walks). Streaming
  /// so a census of a huge archive never materializes the key set.
  virtual void for_each_expected_key(
      const std::function<void(const BlockKey&)>& fn) const = 0;

  /// True when an intact session of the current size would store `key` —
  /// the membership test matching for_each_expected_key, in O(1).
  virtual bool is_expected_key(const BlockKey& key) const = 0;

  /// Re-derives redundancy from the present blocks and flags mismatches.
  virtual IntegrityReport verify_integrity() const = 0;

 private:
  friend class Engine;
  /// Keeps a shared-owned Engine alive for as long as its session (the
  /// session runs on the engine's pool). Null for stack-owned engines,
  /// which must simply outlive the session.
  std::shared_ptr<const void> engine_keepalive_;
};

/// Streaming AE lattice session.
class AeSession final : public CodecSession {
 public:
  /// `store` and `pool` must outlive the session; the store must be
  /// thread-safe (Engine::open_session checks it).
  AeSession(std::shared_ptr<const AeCodec> codec, BlockStore* store,
            std::size_t block_size, std::uint64_t resume_blocks,
            pipeline::ThreadPool* pool);

  const Codec& codec() const override { return *codec_; }
  std::size_t block_size() const override { return block_size_; }
  std::uint64_t size() const override { return encoder_.size(); }
  void append(const std::vector<Bytes>& blocks) override;
  std::unique_ptr<BlockStream> open_stream(NodeIndex first,
                                           std::uint64_t count,
                                           std::size_t window = 0) override;
  RepairReport repair_all(
      std::optional<std::vector<BlockKey>> missing = std::nullopt) override;
  void for_each_expected_key(
      const std::function<void(const BlockKey&)>& fn) const override;
  bool is_expected_key(const BlockKey& key) const override;
  IntegrityReport verify_integrity() const override;

 private:
  /// Wave-parallel repair engine over the current lattice, created
  /// lazily and rebuilt under repairer_mu_ when the lattice has grown
  /// since. Shared ownership: a reader keeps repairing on the one it got
  /// while a later call swaps in a larger one.
  std::shared_ptr<pipeline::ParallelRepairer> repairer();

  std::shared_ptr<const AeCodec> codec_;
  BlockStore* store_;
  std::size_t block_size_;
  pipeline::ThreadPool* pool_;
  pipeline::ParallelEncoder encoder_;
  std::mutex repairer_mu_;  // guards repairer_
  std::shared_ptr<pipeline::ParallelRepairer> repairer_;
};

/// Fixed-width stripe session for a StripeCodec (RS, REP). The tail
/// stripe may be partial; its virtual tail blocks are all-zero and its
/// parities are recomputed whenever appends extend it.
///
/// Crash safety: an interrupted append (or an abandoned FileWriter) can
/// leave orphan data blocks beyond the committed count with tail-stripe
/// parities re-encoded against them. Resuming heals that stripe
/// deterministically — missing committed members are recovered under
/// whichever stripe content (orphans vs. virtual zeros) the surviving
/// redundancy actually verifies, the parities are re-encoded to bind
/// committed data + zeros, and the orphans are dropped — so repairs
/// after a crash never reconstruct from a state the parities don't
/// describe.
///
/// Readers and the writer meet in the partial tail stripe: an append
/// fills its virtual zero blocks and re-encodes its parities, while a
/// reader may be repairing one of its committed blocks. The append holds
/// tail_mu_ from its first write into that stripe until it publishes the
/// new size, and a reader repairing a stripe that is partial by its
/// snapshot of size() takes tail_mu_ too, so a decode never mixes the
/// stripe's old and new parities.
class StripedSession final : public CodecSession {
 public:
  StripedSession(std::shared_ptr<const StripeCodec> codec, BlockStore* store,
                 std::size_t block_size, std::uint64_t resume_blocks,
                 pipeline::ThreadPool* pool);

  const Codec& codec() const override { return *codec_; }
  std::size_t block_size() const override { return block_size_; }
  std::uint64_t size() const override { return count_.load(); }
  void append(const std::vector<Bytes>& blocks) override;
  std::unique_ptr<BlockStream> open_stream(NodeIndex first,
                                           std::uint64_t count,
                                           std::size_t window = 0) override;
  RepairReport repair_all(
      std::optional<std::vector<BlockKey>> missing = std::nullopt) override;
  void for_each_expected_key(
      const std::function<void(const BlockKey&)>& fn) const override;
  bool is_expected_key(const BlockKey& key) const override;
  IntegrityReport verify_integrity() const override;

  std::uint64_t stripes() const noexcept { return (size() + k_ - 1) / k_; }

 private:
  BlockKey parity_key(std::uint64_t stripe, std::uint32_t j) const noexcept {
    return BlockKey{BlockKey::Kind::kParity, StrandClass::kHorizontal,
                    static_cast<NodeIndex>(stripe * m_ + j) + 1};
  }

  // The stripe helpers take the session size they work against: an
  // append encodes against its new size before publishing it.

  /// Data parts of stripe g that are real (not virtual tail zeros).
  std::uint32_t real_parts(std::uint64_t stripe,
                           std::uint64_t count) const noexcept {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(k_, count - stripe * k_));
  }

  /// The whole group of stripe g as codec parts: present payloads,
  /// nullopt for missing real parts, zero blocks for the virtual tail.
  /// `erased` receives the missing real part indices.
  std::vector<std::optional<Bytes>> collect_parts(
      std::uint64_t stripe, std::uint64_t count, PartIndexList& erased) const;

  /// Availability-only probe of stripe g: the missing real part
  /// indices, without reading any payloads.
  PartIndexList probe_erased(std::uint64_t stripe, std::uint64_t count) const;

  /// Resume-time crash recovery for a partial tail stripe (see the
  /// class comment). No-op when no orphan blocks exist.
  void heal_tail_stripe();

  /// Recomputes and stores the parities of one stripe (virtual tail =
  /// zero blocks). The data blocks at 0-based positions [base, base +
  /// fresh.size()) are taken from `fresh`; the others are read from the
  /// store.
  void encode_stripe(std::uint64_t stripe, std::uint64_t count,
                     const std::vector<Bytes>& fresh = {},
                     std::uint64_t base = 0);

  struct StripeOutcome {
    std::uint64_t nodes_repaired = 0;
    std::uint64_t edges_repaired = 0;
    std::uint64_t nodes_unrecovered = 0;
    std::uint64_t edges_unrecovered = 0;
  };

  /// Repairs one stripe in place (no-op when intact); an irreparable
  /// stripe reports its missing parts as unrecovered instead.
  StripeOutcome repair_stripe(std::uint64_t stripe, std::uint64_t count);

  /// A reader's repair of stripe g, serialized with an append that is
  /// re-encoding it (see the class comment).
  void repair_for_read(std::uint64_t stripe);

  /// Stripe a key belongs to (valid only for expected keys).
  std::uint64_t stripe_of_key(const BlockKey& key) const noexcept {
    return key.is_data()
               ? static_cast<std::uint64_t>(key.index - 1) / k_
               : static_cast<std::uint64_t>(key.index - 1) / m_;
  }

  std::shared_ptr<const StripeCodec> codec_;
  BlockStore* store_;
  std::size_t block_size_;
  pipeline::ThreadPool* pool_;
  std::uint32_t k_;  // data parts per stripe
  std::uint32_t m_;  // parity parts per stripe
  /// Written by the appending writer only, once an append is stored.
  std::atomic<std::uint64_t> count_;
  std::mutex tail_mu_;
};

}  // namespace aec
