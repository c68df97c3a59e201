// Which blocks of one AE lattice are present: the repair planner's input,
// the simulation's disaster state and the health census, in one type.
//
// One byte per lattice node i (entry 0 unused) holds a bit for d_i and
// one bit per strand class for the parity whose tail is i, each set
// while that block is missing; a fresh map has every block present.
// Bits 4–7 belong to the map's owner and are never read or written
// here (the health census keeps a node's margin there). The map covers
// the keys an open lattice of n nodes stores, as lattice_expects says;
// a closed lattice's edges wrap into [1, n] too. n = 0 is valid.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/codec/block_key.h"

namespace aec {

/// The block order of every walk over missing keys: ascending index,
/// data before parity, parities in strand-class order (H, RH, LH).
bool block_order_less(const BlockKey& a, const BlockKey& b) noexcept;

class Availability {
 public:
  /// Covers nothing: n = 0, no strand class.
  Availability() = default;
  /// Every block of an `n_nodes`-node lattice under `params` present.
  Availability(const CodeParams& params, std::uint64_t n_nodes);

  std::uint64_t n_nodes() const noexcept { return bytes_.size() - 1; }

  bool covers(const BlockKey& key) const noexcept {
    return key.index >= 1 &&
           static_cast<std::uint64_t>(key.index) < bytes_.size() &&
           (key.is_data() || (class_bits_ & parity_bit(key.cls)) != 0);
  }

  // The queries below and set() take covered keys only.
  bool data_ok(NodeIndex i) const noexcept {
    return (byte(i) & kDataBit) == 0;
  }
  bool parity_ok(Edge e) const noexcept {
    return (byte(e.tail) & parity_bit(e.cls)) == 0;
  }
  bool ok(const BlockKey& key) const noexcept {
    return (byte(key.index) & bit_of(key)) == 0;
  }
  /// True when `key`'s state flipped.
  bool set(const BlockKey& key, bool present) {
    AEC_DCHECK(covers(key));
    std::uint8_t& b = bytes_[static_cast<std::size_t>(key.index)];
    if (((b & bit_of(key)) == 0) == present) return false;
    b ^= bit_of(key);
    return true;
  }

  /// Appends present nodes up to `n_nodes`; never shrinks.
  void grow_to(std::uint64_t n_nodes);

  /// Every missing key in block order: one pass over the bytes.
  std::vector<BlockKey> missing_keys() const;

  /// Node i's owner bits, as a value in [0, 16).
  std::uint8_t owner_bits(NodeIndex i) const noexcept {
    return static_cast<std::uint8_t>(byte(i) >> 4);
  }
  void set_owner_bits(NodeIndex i, std::uint8_t bits) noexcept {
    std::uint8_t& b = bytes_[static_cast<std::size_t>(i)];
    b = static_cast<std::uint8_t>((b & kBlockBits) | (bits << 4));
  }

 private:
  static constexpr std::uint8_t kDataBit = 1u << 0;
  static constexpr std::uint8_t kBlockBits = 0x0f;  // data + 3 classes
  static constexpr std::uint8_t parity_bit(StrandClass cls) noexcept {
    return static_cast<std::uint8_t>(2u << static_cast<unsigned>(cls));
  }
  static std::uint8_t bit_of(const BlockKey& key) noexcept {
    return key.is_data() ? kDataBit : parity_bit(key.cls);
  }
  std::uint8_t byte(NodeIndex i) const noexcept {
    return bytes_[static_cast<std::size_t>(i)];
  }

  std::vector<std::uint8_t> bytes_ = std::vector<std::uint8_t>(1, 0);
  std::uint8_t class_bits_ = 0;  // parity bits of the code's classes
};

}  // namespace aec
