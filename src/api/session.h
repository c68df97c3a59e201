// CodecSession — one growing sequence of fixed-size data blocks kept
// redundant in a BlockStore through a Codec, executed on an Engine's
// shared worker pool.
//
// This is the dispatch point that unifies the code families behind the
// archive: the AE session streams blocks into the entanglement lattice
// (ParallelEncoder + ParallelRepairer over the shared pool — a 1-thread
// engine reproduces the serial byte stream exactly), while the striped
// session groups blocks into fixed-width codec stripes (RS, REP) whose
// parities live in a flat parity index space.
//
// Key layout (shared with FileBlockStore's on-disk naming):
//   data block i        — BlockKey::data(i), i in [1, size()]
//   AE parity           — BlockKey::parity(output edge), lattice naming
//   striped parity j of stripe g (0-based)
//                       — BlockKey{kParity, kHorizontal, g·m + j + 1}
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "api/codec.h"
#include "common/bytes.h"
#include "core/codec/availability_index.h"
#include "core/codec/block_key.h"
#include "core/codec/block_store.h"
#include "core/codec/repair_planner.h"
#include "pipeline/block_fetcher.h"
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

/// Ordered read of one run of data blocks with read_block()'s per-block
/// semantics: healthy blocks are prefetched up to `window` ahead of the
/// consumer (whole-batch BlockFetcher refill on the engine pool), and a
/// block the prefetch found missing falls back to repair-on-read, whose
/// repairs are persisted. Opened by CodecSession::open_stream; the
/// session (and its store) must outlive the stream. Like the session
/// itself, a stream has one consumer thread.
class BlockStream {
 public:
  /// Repair-on-read fallback for data block i (nullopt = irrecoverable).
  using Recover = std::function<std::optional<Bytes>(NodeIndex)>;

  /// Prefetches on `pool` only when the store synchronizes its own
  /// reads — otherwise pool tasks would race the consumer-side repair
  /// fallback — and degrades to synchronous batched reads (one store
  /// round trip per batch, no overlap) on other stores.
  BlockStream(const BlockStore& store, pipeline::ThreadPool* pool,
              NodeIndex first, std::uint64_t count, std::size_t window,
              Recover recover);

  /// The next block of the run (nullopt = irrecoverable). Must not be
  /// called past the end of the run.
  std::optional<Bytes> next();

  std::uint64_t size() const noexcept { return fetcher_.size(); }
  std::uint64_t consumed() const noexcept { return fetcher_.consumed(); }
  bool exhausted() const noexcept { return fetcher_.exhausted(); }
  std::size_t window() const noexcept { return window_; }

 private:
  NodeIndex first_;
  std::size_t window_;
  Recover recover_;
  pipeline::BlockFetcher fetcher_;
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

  /// Data blocks appended so far.
  virtual std::uint64_t size() const = 0;

  /// Appends data blocks (each exactly block_size bytes): stores them
  /// and the redundancy the codec derives for them.
  virtual void append(const std::vector<Bytes>& blocks) = 0;

  /// Returns data block i (1 ≤ i ≤ size()), repairing through the codec
  /// when blocks are missing; repairs are persisted. nullopt when the
  /// block is irrecoverable.
  virtual std::optional<Bytes> read_block(NodeIndex i) = 0;

  /// Opens the pipelined read of data blocks [first, first+count) (see
  /// BlockStream): healthy blocks are prefetched up to `window` ahead of
  /// consumption through the engine pool, overlapping store I/O with
  /// copy-out and repair work; damaged blocks fall back to
  /// repair-on-read with the repair plan's inputs batch-prefetched.
  /// `window` = 0 uses the session default (see set_read_window_blocks).
  virtual std::unique_ptr<BlockStream> open_stream(
      NodeIndex first, std::uint64_t count, std::size_t window = 0) = 0;

  /// Ranged read: data blocks [first, first+count), one entry per block
  /// with read_block()'s per-block semantics (repairs persisted, nullopt
  /// = irrecoverable). The sessions collect open_stream(); the base
  /// implementation is the unwindowed per-block loop — the baseline the
  /// conformance tests and bench_read_throughput compare against.
  virtual std::vector<std::optional<Bytes>> read_blocks(
      NodeIndex first, std::uint64_t count, std::size_t window = 0);

  /// Default lookahead window (blocks) for read_blocks(window = 0).
  /// Engines stamp their resolved default on every session they open.
  void set_read_window_blocks(std::size_t window) noexcept {
    if (window > 0) read_window_blocks_ = window;
  }
  std::size_t read_window_blocks() const noexcept {
    return read_window_blocks_;
  }

  /// Repairs everything recoverable; reports the paper's round/residue
  /// accounting (striped codecs always finish in one round).
  virtual RepairReport repair_all() = 0;

  /// Visits every key an intact session of the current size stores, in
  /// a deterministic order (damage injection / census walks). Streaming
  /// so a census of a huge archive never materializes the key set.
  virtual void for_each_expected_key(
      const std::function<void(const BlockKey&)>& fn) const = 0;

  /// True when an intact session of the current size would store `key` —
  /// the membership test matching for_each_expected_key, in O(1).
  virtual bool is_expected_key(const BlockKey& key) const = 0;

  /// Attaches an incrementally maintained availability index (see
  /// availability_index.h); repair passes then plan from its missing set
  /// — O(damage) — instead of scanning the store. Null detaches. The
  /// caller owns keeping the index consistent with every store mutation
  /// (Archive wires it as the store's observer and seeds it at open).
  virtual void attach_availability_index(const AvailabilityIndex* index) = 0;

  /// Re-derives redundancy from the present blocks and flags mismatches.
  virtual IntegrityReport verify_integrity() const = 0;

 protected:
  /// The sessions' read_blocks: every block of open_stream(), in order,
  /// under one "read.window" trace span.
  std::vector<std::optional<Bytes>> collect_stream(NodeIndex first,
                                                   std::uint64_t count,
                                                   std::size_t window);

 private:
  friend class Engine;
  /// Keeps a shared-owned Engine alive for as long as its session (the
  /// session runs on the engine's pool). Null for stack-owned engines,
  /// which must simply outlive the session.
  std::shared_ptr<const void> engine_keepalive_;
  std::size_t read_window_blocks_ = 64;
};

/// Streaming AE lattice session.
class AeSession final : public CodecSession {
 public:
  /// `store` and `pool` must outlive the session; the store must have
  /// thread-safe put()/get_copy() when the pool has > 1 worker.
  AeSession(std::shared_ptr<const AeCodec> codec, BlockStore* store,
            std::size_t block_size, std::uint64_t resume_blocks,
            pipeline::ThreadPool* pool,
            pipeline::Schedule schedule = pipeline::Schedule::kStrands);

  const Codec& codec() const override { return *codec_; }
  std::size_t block_size() const override { return block_size_; }
  std::uint64_t size() const override { return encoder_.size(); }
  void append(const std::vector<Bytes>& blocks) override;
  std::optional<Bytes> read_block(NodeIndex i) override;
  std::unique_ptr<BlockStream> open_stream(NodeIndex first,
                                           std::uint64_t count,
                                           std::size_t window = 0) override;
  std::vector<std::optional<Bytes>> read_blocks(
      NodeIndex first, std::uint64_t count, std::size_t window = 0) override;
  RepairReport repair_all() override;
  void for_each_expected_key(
      const std::function<void(const BlockKey&)>& fn) const override;
  bool is_expected_key(const BlockKey& key) const override;
  void attach_availability_index(const AvailabilityIndex* index) override;
  IntegrityReport verify_integrity() const override;

 private:
  /// Wave-parallel repair engine, created lazily and rebuilt when the
  /// lattice has grown since.
  pipeline::ParallelRepairer& repairer();

  std::shared_ptr<const AeCodec> codec_;
  BlockStore* store_;
  std::size_t block_size_;
  pipeline::ThreadPool* pool_;
  const AvailabilityIndex* avail_index_ = nullptr;
  pipeline::ParallelEncoder encoder_;
  std::unique_ptr<pipeline::ParallelRepairer> repairer_;
};

/// Fixed-width stripe session for striped codecs (RS, REP). The tail
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
class StripedSession final : public CodecSession {
 public:
  StripedSession(std::shared_ptr<const Codec> codec, BlockStore* store,
                 std::size_t block_size, std::uint64_t resume_blocks,
                 pipeline::ThreadPool* pool);

  const Codec& codec() const override { return *codec_; }
  std::size_t block_size() const override { return block_size_; }
  std::uint64_t size() const override { return count_; }
  void append(const std::vector<Bytes>& blocks) override;
  std::optional<Bytes> read_block(NodeIndex i) override;
  std::unique_ptr<BlockStream> open_stream(NodeIndex first,
                                           std::uint64_t count,
                                           std::size_t window = 0) override;
  std::vector<std::optional<Bytes>> read_blocks(
      NodeIndex first, std::uint64_t count, std::size_t window = 0) override;
  RepairReport repair_all() override;
  void for_each_expected_key(
      const std::function<void(const BlockKey&)>& fn) const override;
  bool is_expected_key(const BlockKey& key) const override;
  void attach_availability_index(const AvailabilityIndex* index) override;
  IntegrityReport verify_integrity() const override;

  std::uint64_t stripes() const noexcept { return (count_ + k_ - 1) / k_; }

 private:
  BlockKey parity_key(std::uint64_t stripe, std::uint32_t j) const noexcept {
    return BlockKey{BlockKey::Kind::kParity, StrandClass::kHorizontal,
                    static_cast<NodeIndex>(stripe * m_ + j) + 1};
  }

  /// The whole group of stripe g as codec parts: present payloads,
  /// nullopt for missing real parts, zero blocks for the virtual tail.
  /// `erased` receives the missing real part indices.
  std::vector<std::optional<Bytes>> collect_parts(
      std::uint64_t stripe, PartIndexList& erased) const;

  /// Availability-only probe of stripe g: the missing real part
  /// indices, without reading any payloads.
  PartIndexList probe_erased(std::uint64_t stripe) const;

  /// Resume-time crash recovery for a partial tail stripe (see the
  /// class comment). No-op when no orphan blocks exist.
  void heal_tail_stripe();

  /// Recomputes and stores the parities of one stripe from the data
  /// blocks currently in the store (virtual tail = zero blocks).
  void encode_stripe(std::uint64_t stripe);

  struct StripeOutcome {
    std::uint64_t nodes_repaired = 0;
    std::uint64_t edges_repaired = 0;
    std::uint64_t nodes_unrecovered = 0;
    std::uint64_t edges_unrecovered = 0;
  };

  /// Repairs one stripe in place (no-op when intact); an irreparable
  /// stripe reports its missing parts as unrecovered instead.
  StripeOutcome repair_stripe(std::uint64_t stripe);

  /// Stripe a key belongs to (valid only for expected keys).
  std::uint64_t stripe_of_key(const BlockKey& key) const noexcept {
    return key.is_data()
               ? static_cast<std::uint64_t>(key.index - 1) / k_
               : static_cast<std::uint64_t>(key.index - 1) / m_;
  }

  std::shared_ptr<const Codec> codec_;
  BlockStore* store_;
  std::size_t block_size_;
  pipeline::ThreadPool* pool_;
  const AvailabilityIndex* avail_index_ = nullptr;
  std::uint32_t k_;  // data parts per stripe
  std::uint32_t m_;  // parity parts per stripe
  std::uint64_t count_ = 0;
};

}  // namespace aec
