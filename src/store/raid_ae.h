// RAID-AE: redundant arrays of *interdependent* disks (paper §IV-B-2).
//
// A log-structured, append-only array that writes an AE(α, s, p) lattice
// round-robin over its drives — the "never-ending stripe": adding a drive
// changes the placement of future blocks only, so the array scales
// without re-encoding (unlike RAID5's fixed-width stripes). Degraded
// reads route through the lattice's alternative paths; rebuilding a
// failed drive costs 2 block reads per missing block instead of RS's k.
//
// Encoding and repair run on a one-thread Engine session over the
// array's store, which locks itself like every store a session runs on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "api/engine.h"
#include "core/codec/block_store.h"

namespace aec::store {

class RaidAeArray {
 public:
  RaidAeArray(CodeParams params, std::uint32_t drives,
              std::size_t block_size);
  ~RaidAeArray();

  RaidAeArray(const RaidAeArray&) = delete;
  RaidAeArray& operator=(const RaidAeArray&) = delete;

  /// Appends one data block (computing its α parities). The data block
  /// and each parity land on drives round-robin in arrival order.
  NodeIndex write_block(BytesView data);

  std::uint32_t drive_count() const noexcept;
  std::uint64_t blocks_written() const noexcept;

  /// Write penalty per data block: α + 1 device writes (paper §IV-B-2).
  std::uint32_t write_penalty() const noexcept;

  /// Adds an empty drive. Existing blocks keep their placement and their
  /// parity bytes — no re-encoding (the "never-ending stripe" property,
  /// verified by tests via parity_checksum()).
  void add_drive();

  void set_drive_online(std::uint32_t drive, bool online);
  bool is_drive_online(std::uint32_t drive) const;

  /// Drive currently holding a block.
  std::uint32_t drive_of_data(NodeIndex i) const;
  std::uint32_t drive_of_parity(Edge e) const;

  struct ReadResult {
    std::optional<Bytes> value;
    /// Blocks fetched from healthy drives to serve the read (1 for a
    /// healthy read, 2 for a single-failure degraded read, more along
    /// longer paths).
    std::uint64_t blocks_fetched = 0;
    bool degraded = false;
  };
  /// Reads d_i, repairing through alternative paths when its drive is
  /// offline. Repaired blocks are NOT written back (the drive is only
  /// temporarily unavailable — §IV-B-2 "degraded reads").
  ReadResult degraded_read(NodeIndex i);

  struct RebuildReport {
    std::uint64_t blocks_rebuilt = 0;
    std::uint64_t blocks_read = 0;   ///< total bandwidth in blocks
    std::uint64_t unrecoverable = 0;
  };
  /// Regenerates every block of a (failed) drive onto the remaining
  /// drives, counting read bandwidth. The drive is removed from the
  /// placement of future writes.
  RebuildReport rebuild_drive(std::uint32_t drive);

  /// XOR-fold of all stored parity payloads — cheap fingerprint used to
  /// demonstrate that add_drive() re-encodes nothing.
  std::uint64_t parity_checksum() const;

 private:
  class ArrayStore;

  CodeParams params_;
  std::size_t block_size_;
  std::unique_ptr<ArrayStore> store_;
  Engine engine_{1};
  std::unique_ptr<CodecSession> session_;  // over store_, on engine_
};

}  // namespace aec::store
