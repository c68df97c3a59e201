// Engine — the execution facade of the library.
//
// An Engine is one ThreadPool of a chosen size, and the thread count is
// its only setting. Everything that sizes execution (Archive, aectool,
// aecd) takes an Engine: serial execution IS a 1-thread engine, so there
// is exactly one code path (ParallelEncoder/ParallelRepairer for AE) and
// the stored bytes are identical at every thread count.
//
// open_session() is the single dispatch point from a Codec to its
// executor, by the codec's type: an AeCodec gets the lattice pipeline
// (AeSession, the only AE encoder and repairer), a StripeCodec (RS, REP)
// the stripe session — both sharing this engine's worker pool, so
// several archives/sessions can multiplex one pool.
// Every session runs pool tasks against its store, so open_session only
// accepts stores that synchronize themselves (BlockStore::thread_safe).
// Each batch, wave and repair pass waits on its own completion group
// (ThreadPool::Group), so sessions of one engine — and the one writer
// and many readers of one session (session.h) — run side by side on the
// shared pool without waiting for each other's tasks.
#pragma once

#include <cstdint>
#include <memory>

#include "api/codec.h"
#include "api/session.h"
#include "pipeline/thread_pool.h"

namespace aec {

class Engine : public std::enable_shared_from_this<Engine> {
 public:
  /// `threads` workers (at least 1). 1 reproduces the serial byte
  /// stream with one worker; more turns on strand/wave parallelism.
  explicit Engine(std::size_t threads = 1);

  /// 1-thread engine (the serial path).
  static std::shared_ptr<Engine> serial();
  /// Engine with `threads` workers.
  static std::shared_ptr<Engine> with_threads(std::size_t threads);

  std::size_t threads() const noexcept { return pool_.thread_count(); }
  pipeline::ThreadPool& pool() noexcept { return pool_; }

  /// Blocks a streaming FileWriter buffers before flushing a window into
  /// the session (256 per worker) — the peak memory of chunked ingest.
  std::size_t ingest_window_blocks() const noexcept { return 256 * threads(); }

  /// Builds the session type matching the codec's type over this
  /// engine's pool: AeSession for an AeCodec, StripedSession for a
  /// StripeCodec, CheckError for any other. `codec` is shared with the
  /// caller; `store` must outlive the session and must be thread-safe
  /// (CheckError otherwise, at every thread count). `resume_blocks` > 0
  /// resumes an existing sequence of that many data blocks (e.g. a
  /// reopened archive). A shared-owned engine is kept alive by its
  /// sessions; an engine constructed outside a shared_ptr must itself
  /// outlive every session it opened.
  std::unique_ptr<CodecSession> open_session(
      std::shared_ptr<const Codec> codec, BlockStore* store,
      std::size_t block_size, std::uint64_t resume_blocks = 0);

 private:
  pipeline::ThreadPool pool_;
};

}  // namespace aec
