// Block — one immutable, reference-counted block payload: the buffer a
// block lives in from the store to the socket (ytsaurus's TSharedRef,
// SNIPPETS.md 1–2). A copy of a Block shares its buffer, so a store
// answers a read with a reference, the encoder's strand head is the
// parity it just stored, and a GET_DATA frame is sent from the bytes the
// store holds.
//
// Immutability: a fresh Block is written once, by the fill callback of
// build(), before any other handle to it exists; after that nothing
// writes its bytes. A store that overwrites or erases a key drops its
// own reference only, so a Block read earlier keeps its bytes for as
// long as its holder keeps it.
//
// Layout: a fresh block is one allocation, an 8-byte header (the
// reference count and the buffer's kind) followed by the payload. At
// 4 KiB blocks malloc serves 4104 bytes from the same 4112-byte chunk a
// std::vector's 4096 bytes take (a std::make_shared_for_overwrite
// buffer's 48-byte control block would take a 4160-byte chunk). The
// payload is 8-byte aligned; the XOR kernels load unaligned.
// Block::adopt wraps an existing Bytes without copying it (one small
// allocation for the header and the vector), for the Bytes edges.
//
// Where long-lived blocks are allocated: the library builds the blocks
// a store keeps (data copies, parities, repair outputs) on the engine's
// pool workers. glibc gives each thread that allocates its own arena,
// so blocks allocated on other threads and kept in a store spread the
// heap over more arenas: a trial that handed FileWriter's buffers,
// allocated on the daemon's writer lane, to the store raised perfbench
// `serve` rss_peak_mib 1053 → 1343 MiB (+27.6%), and 1021 → 1033 MiB
// with MALLOC_ARENA_MAX=1 (4-core host). Handing those buffers over
// waits for a block free list (ROADMAP item 1).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/bytes.h"

namespace aec {

class Block {
 public:
  /// The null block: no buffer. A read of a missing key returns one.
  Block() noexcept = default;
  Block(const Block& other) noexcept
      : rep_(other.rep_), data_(other.data_), size_(other.size_) {
    retain();
  }
  Block(Block&& other) noexcept
      : rep_(other.rep_), data_(other.data_), size_(other.size_) {
    other.rep_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  Block& operator=(const Block& other) noexcept {
    Block copy(other);
    swap(copy);
    return *this;
  }
  Block& operator=(Block&& other) noexcept {
    Block moved(std::move(other));
    swap(moved);
    return *this;
  }
  ~Block() { release(); }

  /// A fresh block of `size` bytes: `fill` gets the whole buffer as a
  /// writable span and must write every byte before it returns, which
  /// publishes the block. One allocation.
  template <class Fill>
  static Block build(std::size_t size, Fill&& fill) {
    Block block = allocate(size);
    fill(std::span<std::uint8_t>(block.data_, size));
    return block;
  }
  /// A fresh block holding a copy of `bytes`.
  static Block copy_of(BytesView bytes);
  /// A fresh all-zero block.
  static Block zeros(std::size_t size);
  /// Takes `bytes` over without copying them: the block's payload is the
  /// vector's buffer.
  static Block adopt(Bytes&& bytes);

  explicit operator bool() const noexcept { return rep_ != nullptr; }
  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }
  BytesView view() const noexcept { return {data_, size_}; }
  operator BytesView() const noexcept { return view(); }
  /// A copy of the payload, for a Bytes edge.
  Bytes to_bytes() const { return Bytes(begin(), end()); }
  /// True when both handles share one buffer.
  bool shares(const Block& other) const noexcept {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  void swap(Block& other) noexcept {
    std::swap(rep_, other.rep_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  /// Byte equality; a null block equals only a null block.
  friend bool operator==(const Block& a, const Block& b) noexcept {
    if (!a || !b) return !a && !b;
    return a == b.view();
  }
  /// Byte equality with a view; a null block equals no view.
  friend bool operator==(const Block& a, BytesView b) noexcept;

 private:
  struct Rep;
  struct Adopted;
  static Block allocate(std::size_t size);
  void retain() noexcept;
  void release() noexcept;

  Rep* rep_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace aec
