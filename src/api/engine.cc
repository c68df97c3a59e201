#include "api/engine.h"

#include <algorithm>

#include "common/check.h"

namespace aec {

Engine::Engine(std::size_t threads)
    : pool_(std::max<std::size_t>(1, threads)) {}

std::shared_ptr<Engine> Engine::serial() { return std::make_shared<Engine>(); }

std::shared_ptr<Engine> Engine::with_threads(std::size_t threads) {
  return std::make_shared<Engine>(threads);
}

std::unique_ptr<CodecSession> Engine::open_session(
    std::shared_ptr<const Codec> codec, BlockStore* store,
    std::size_t block_size, std::uint64_t resume_blocks) {
  AEC_CHECK_MSG(codec != nullptr, "open_session: null codec");
  AEC_CHECK_MSG(store != nullptr, "open_session: null store");
  AEC_CHECK_MSG(store->thread_safe(),
                "open_session: the store must synchronize itself (pool "
                "tasks read and write it)");
  std::unique_ptr<CodecSession> session;
  if (auto ae = std::dynamic_pointer_cast<const AeCodec>(codec)) {
    session = std::make_unique<AeSession>(std::move(ae), store, block_size,
                                          resume_blocks, &pool_);
  } else {
    auto striped = std::dynamic_pointer_cast<const StripeCodec>(codec);
    AEC_CHECK_MSG(striped != nullptr,
                  "codec " << codec->id() << " has no session type");
    session = std::make_unique<StripedSession>(std::move(striped), store,
                                               block_size, resume_blocks,
                                               &pool_);
  }
  // Shared-owned engines stay alive as long as their sessions (the
  // session runs on this engine's pool); null for stack-owned engines.
  session->engine_keepalive_ = weak_from_this().lock();
  return session;
}

}  // namespace aec
