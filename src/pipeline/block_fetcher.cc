#include "pipeline/block_fetcher.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "pipeline/thread_pool.h"

namespace aec::pipeline {

struct BlockFetcher::Batch {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  std::vector<std::optional<Bytes>> results;
};

namespace {

BlockFetcher::Options validated(BlockFetcher::Options opt) {
  AEC_CHECK_MSG(opt.window >= 1, "fetcher window must be >= 1");
  AEC_CHECK_MSG(opt.batch >= 1, "fetcher batch must be >= 1");
  opt.batch = std::min(opt.batch, opt.window);
  return opt;
}

}  // namespace

BlockFetcher::BlockFetcher(const BlockStore& store, ThreadPool* pool,
                           std::vector<BlockKey> keys, Options options)
    : store_(store),
      pool_(pool),
      size_(keys.size()),
      key_at_([keys = std::move(keys)](std::size_t i) { return keys[i]; }),
      opt_(validated(options)) {}

BlockFetcher::BlockFetcher(const BlockStore& store, ThreadPool* pool,
                           std::size_t size, KeyAt key_at, Options options)
    : store_(store),
      pool_(pool),
      size_(size),
      key_at_(std::move(key_at)),
      opt_(validated(options)) {}

BlockFetcher::~BlockFetcher() {
  // Drain in-flight batches so no pool task can touch the store after
  // the caller tears it down; whatever they fetched goes unconsumed.
  for (const auto& batch : inflight_) {
    std::unique_lock lock(batch->mu);
    batch->cv.wait(lock, [&] { return batch->done; });
  }
  if (issued_ > consumed_) wasted_blocks_->add(issued_ - consumed_);
}

void BlockFetcher::fill_window() {
  while (issued_ < size_) {
    const std::size_t n = std::min(opt_.batch, size_ - issued_);
    if (issued_ - consumed_ + n > opt_.window) break;  // no whole batch fits
    auto batch = std::make_shared<Batch>();
    std::vector<BlockKey> sub;
    sub.reserve(n);
    for (std::size_t i = issued_; i < issued_ + n; ++i)
      sub.push_back(key_at_(i));
    issued_ += n;
    issued_blocks_->add(n);
    inflight_.push_back(batch);
    // The task captures only the batch (shared) and the store; errors
    // stay inside the batch so a shared pool's wait_idle() never sees
    // them.
    const BlockStore* store = &store_;
    auto task = [store, batch, sub = std::move(sub)]() mutable {
      std::vector<std::optional<Bytes>> results;
      std::exception_ptr error;
      try {
        results = store->get_batch(sub);
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
    };
    if (pool_ != nullptr)
      pool_->submit(std::move(task));
    else
      task();
  }
}

std::optional<Bytes> BlockFetcher::next() {
  AEC_CHECK_MSG(consumed_ < size_, "fetcher read past end of run");
  fill_window();
  lookahead_depth_->observe(issued_ - consumed_);
  const std::shared_ptr<Batch>& batch = inflight_.front();
  {
    std::unique_lock lock(batch->mu);
    if (batch->done) {
      hit_blocks_->add();
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      batch->cv.wait(lock, [&] { return batch->done; });
      fetch_wait_us_->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    if (batch->error) std::rethrow_exception(batch->error);
  }
  std::optional<Bytes> result = std::move(batch->results[front_pos_]);
  ++front_pos_;
  ++consumed_;
  if (front_pos_ == batch->results.size()) {
    inflight_.pop_front();
    front_pos_ = 0;
  }
  return result;
}

}  // namespace aec::pipeline
