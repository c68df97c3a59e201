// Unified erasure-codec interface (the paper's §VI head-to-head framing
// made executable: AE, Reed-Solomon and replication behind one API).
//
// A Codec works on *groups* of equally-sized blocks. A group holds n
// data parts followed by parity_parts(n) parity parts; parts are
// addressed by a flat PartIndex (data first, parities after). Striped
// codecs (RS, REP) fix the group width — group_data_parts() > 0 — and a
// long block sequence is encoded stripe by stripe. Streaming codecs
// (AE) report group_data_parts() == 0: the group is whatever window
// encode() is handed, and in an archive it is the whole growing
// lattice.
//
// Parity ordering:
//   AE      — lattice order: node i contributes its α output parities in
//             strand-class order, so parity part (i-1)·α + c is
//             p_{i,·} on classes()[c].
//   RS(k,m) — the m Cauchy parity rows in row order.
//   REP(n)  — the n−1 extra copies.
//
// make_codec() builds a codec from its spec string ("AE(3,2,5)",
// "RS(10,4)", "REP(3)"); the three families are a closed set, and id()
// round-trips through make_codec().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/lattice/code_params.h"
#include "rs/reed_solomon.h"

namespace aec {

/// Flat index of a block within a codec group: data parts 0..n-1, parity
/// parts n..n+parity_parts(n)-1.
using PartIndex = std::uint32_t;

/// Sorted, duplicate-free set of part indices.
using PartIndexList = std::vector<PartIndex>;

class Codec {
 public:
  virtual ~Codec() = default;

  /// Spec string, re-parseable by make_codec(): "AE(3,2,5)", "RS(10,4)",
  /// "REP(3)".
  virtual std::string id() const = 0;

  /// Data parts per group; 0 for streaming codecs whose group is the
  /// whole window handed to encode().
  virtual std::uint32_t group_data_parts() const = 0;

  /// Parity parts produced for a group of n_data data blocks.
  virtual std::uint32_t parity_parts(std::uint32_t n_data) const = 0;

  /// Additional storage as % of the source (paper Table IV "AS").
  virtual double storage_overhead_percent() const = 0;

  /// Blocks read to repair one single failure (paper Table IV "SF").
  virtual std::uint32_t single_failure_fanin() const = 0;

  /// Encodes one group: the parity blocks for `data`, in part order.
  /// Striped codecs require data.size() == group_data_parts(); streaming
  /// codecs accept any non-empty window. All blocks must share one size.
  virtual std::vector<Bytes> encode(const std::vector<Bytes>& data) const = 0;

  /// The surviving parts a repair of `erased` reads (sorted), or nullopt
  /// when the group is irreparable. Not every surviving part is needed.
  /// `erased` must be sorted and duplicate-free (CheckError otherwise).
  virtual std::optional<PartIndexList> repair_indices(
      std::uint32_t n_data, const PartIndexList& erased) const = 0;

  /// True iff a group of n_data data blocks with the `erased` parts
  /// missing can be fully reconstructed (same input checks as
  /// repair_indices).
  bool can_repair(std::uint32_t n_data, const PartIndexList& erased) const {
    return repair_indices(n_data, erased).has_value();
  }

  /// Reconstructs the erased parts of one group. `parts` holds the whole
  /// group (present payload or nullopt per part; its size fixes n_data).
  /// Returns the rebuilt payloads in `erased` order, or nullopt when the
  /// erasure pattern is irreparable.
  virtual std::optional<std::vector<Bytes>> repair(
      const std::vector<std::optional<Bytes>>& parts,
      const PartIndexList& erased) const = 0;

  /// n_data + parity_parts(n_data).
  std::uint32_t group_total_parts(std::uint32_t n_data) const {
    return n_data + parity_parts(n_data);
  }
};

/// Alpha entanglement — streaming lattice codec (group = whole window).
class AeCodec final : public Codec {
 public:
  explicit AeCodec(CodeParams params);

  const CodeParams& params() const noexcept { return params_; }

  std::string id() const override;
  std::uint32_t group_data_parts() const override { return 0; }
  std::uint32_t parity_parts(std::uint32_t n_data) const override;
  double storage_overhead_percent() const override;
  std::uint32_t single_failure_fanin() const override { return 2; }
  std::vector<Bytes> encode(const std::vector<Bytes>& data) const override;
  std::optional<PartIndexList> repair_indices(
      std::uint32_t n_data, const PartIndexList& erased) const override;
  std::optional<std::vector<Bytes>> repair(
      const std::vector<std::optional<Bytes>>& parts,
      const PartIndexList& erased) const override;

 private:
  CodeParams params_;
};

/// Systematic Reed-Solomon stripes (wraps rs::ReedSolomon).
class RsCodec final : public Codec {
 public:
  RsCodec(std::uint32_t k, std::uint32_t m);

  const rs::ReedSolomon& rs() const noexcept { return rs_; }

  std::string id() const override;
  std::uint32_t group_data_parts() const override { return rs_.k(); }
  std::uint32_t parity_parts(std::uint32_t n_data) const override;
  double storage_overhead_percent() const override;
  std::uint32_t single_failure_fanin() const override { return rs_.k(); }
  std::vector<Bytes> encode(const std::vector<Bytes>& data) const override;
  std::optional<PartIndexList> repair_indices(
      std::uint32_t n_data, const PartIndexList& erased) const override;
  std::optional<std::vector<Bytes>> repair(
      const std::vector<std::optional<Bytes>>& parts,
      const PartIndexList& erased) const override;

 private:
  rs::ReedSolomon rs_;
};

/// n-way replication (the paper's second comparator): one data part,
/// n−1 copy parts.
class ReplicationCodec final : public Codec {
 public:
  /// n total copies (n-way), n ≥ 1.
  explicit ReplicationCodec(std::uint32_t copies);

  std::uint32_t copies() const noexcept { return copies_; }

  std::string id() const override;
  std::uint32_t group_data_parts() const override { return 1; }
  std::uint32_t parity_parts(std::uint32_t n_data) const override;
  double storage_overhead_percent() const override;
  std::uint32_t single_failure_fanin() const override { return 1; }
  std::vector<Bytes> encode(const std::vector<Bytes>& data) const override;
  std::optional<PartIndexList> repair_indices(
      std::uint32_t n_data, const PartIndexList& erased) const override;
  std::optional<std::vector<Bytes>> repair(
      const std::vector<std::optional<Bytes>>& parts,
      const PartIndexList& erased) const override;

 private:
  std::uint32_t copies_;
};

/// Builds the codec a spec names: AE(alpha,s,p), AE(1) or AE(1,-,-),
/// RS(k,m) or REP(n). Throws CheckError on syntax errors (missing
/// parentheses, empty/non-numeric arguments, trailing junk), unknown
/// families and invalid parameters.
std::unique_ptr<Codec> make_codec(const std::string& spec);

}  // namespace aec
