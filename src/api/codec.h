// The erasure-code families of the paper's §VI head-to-head — AE,
// Reed-Solomon and replication — behind one spec string.
//
// A Codec names the family and parameters a spec selects; make_codec()
// builds one from its spec ("AE(3,2,5)", "RS(10,4)", "REP(3)"), the
// three families are a closed set, and id() round-trips through
// make_codec(). Engine::open_session() turns a codec into the session
// that stores a growing block sequence with its redundancy: an AeCodec
// streams blocks into the entanglement lattice (AeSession, the one way
// AE is encoded and repaired), a StripeCodec groups them into stripes
// (StripedSession).
//
// StripeCodec is the group API of the stripe families (RS, REP). A
// stripe holds data_parts() data blocks followed by parity_parts()
// parity blocks, addressed by a flat PartIndex (data first, parities
// after). Parity ordering:
//   RS(k,m) — the m Cauchy parity rows in row order.
//   REP(n)  — the n−1 extra copies.
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

/// Flat index of a block within a stripe: data parts 0..k-1, parity
/// parts k..k+m-1.
using PartIndex = std::uint32_t;

/// Sorted, duplicate-free set of part indices.
using PartIndexList = std::vector<PartIndex>;

class Codec {
 public:
  virtual ~Codec() = default;

  /// Spec string, re-parseable by make_codec(): "AE(3,2,5)", "RS(10,4)",
  /// "REP(3)".
  virtual std::string id() const = 0;
};

/// Alpha entanglement: the AE(α,s,p) lattice a session streams into.
class AeCodec final : public Codec {
 public:
  explicit AeCodec(CodeParams params);

  const CodeParams& params() const noexcept { return params_; }

  std::string id() const override;

 private:
  CodeParams params_;
};

/// A fixed-width stripe family: encode and repair one stripe of
/// data_parts() data blocks and parity_parts() parity blocks.
class StripeCodec : public Codec {
 public:
  /// Data parts per stripe (k).
  virtual std::uint32_t data_parts() const = 0;

  /// Parity parts per stripe (m).
  virtual std::uint32_t parity_parts() const = 0;

  /// The parity blocks of one stripe, in part order. `data` holds
  /// exactly data_parts() non-empty blocks of one size.
  virtual std::vector<Bytes> encode(const std::vector<Bytes>& data) const = 0;

  /// The surviving parts a repair of `erased` reads (sorted), or nullopt
  /// when the stripe is irreparable. Not every surviving part is needed.
  /// `erased` must be sorted and duplicate-free (CheckError otherwise).
  virtual std::optional<PartIndexList> repair_indices(
      const PartIndexList& erased) const = 0;

  /// True iff a stripe with the `erased` parts missing can be fully
  /// reconstructed (same input checks as repair_indices).
  bool can_repair(const PartIndexList& erased) const {
    return repair_indices(erased).has_value();
  }

  /// Reconstructs the erased parts of one stripe. `parts` holds the
  /// whole stripe (present payload or nullopt per part). Returns the
  /// rebuilt payloads in `erased` order, or nullopt when the erasure
  /// pattern is irreparable.
  virtual std::optional<std::vector<Bytes>> repair(
      const std::vector<std::optional<Bytes>>& parts,
      const PartIndexList& erased) const = 0;
};

/// Systematic Reed-Solomon stripes (wraps rs::ReedSolomon).
class RsCodec final : public StripeCodec {
 public:
  RsCodec(std::uint32_t k, std::uint32_t m);

  const rs::ReedSolomon& rs() const noexcept { return rs_; }

  std::string id() const override;
  std::uint32_t data_parts() const override { return rs_.k(); }
  std::uint32_t parity_parts() const override { return rs_.m(); }
  std::vector<Bytes> encode(const std::vector<Bytes>& data) const override;
  std::optional<PartIndexList> repair_indices(
      const PartIndexList& erased) const override;
  std::optional<std::vector<Bytes>> repair(
      const std::vector<std::optional<Bytes>>& parts,
      const PartIndexList& erased) const override;

 private:
  rs::ReedSolomon rs_;
};

/// n-way replication (the paper's second comparator): one data part,
/// n−1 copy parts.
class ReplicationCodec final : public StripeCodec {
 public:
  /// Largest n: the bound RS puts on k + m. Every copy is stored, so a
  /// spec from outside the program must not ask for more.
  static constexpr std::uint32_t kMaxCopies = 256;

  /// n total copies (n-way), 1 ≤ n ≤ kMaxCopies.
  explicit ReplicationCodec(std::uint32_t copies);

  std::uint32_t copies() const noexcept { return copies_; }

  std::string id() const override;
  std::uint32_t data_parts() const override { return 1; }
  std::uint32_t parity_parts() const override { return copies_ - 1; }
  std::vector<Bytes> encode(const std::vector<Bytes>& data) const override;
  std::optional<PartIndexList> repair_indices(
      const PartIndexList& erased) const override;
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
