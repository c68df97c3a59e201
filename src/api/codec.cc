#include "api/codec.h"

#include <algorithm>
#include <cctype>
#include <span>

#include "common/check.h"
#include "gf/gf256.h"

namespace aec {

namespace {

void check_erased_list(const PartIndexList& erased, std::uint32_t total) {
  for (std::size_t i = 0; i < erased.size(); ++i) {
    AEC_CHECK_MSG(erased[i] < total, "erased part " << erased[i]
                                                    << " out of range (group"
                                                       " has "
                                                    << total << " parts)");
    AEC_CHECK_MSG(i == 0 || erased[i - 1] < erased[i],
                  "erased part list must be sorted and duplicate-free");
  }
}

/// The one size of the non-null blocks among `parts` (0 when all are
/// null). Throws CheckError when one is empty or two differ in size.
std::size_t part_size(const std::vector<Block>& parts, const char* op) {
  std::size_t size = 0;
  for (const Block& part : parts) {
    if (!part) continue;
    AEC_CHECK_MSG(!part.empty(), op << ": zero-sized blocks");
    AEC_CHECK_MSG(size == 0 || part.size() == size,
                  op << ": ragged block sizes");
    size = part.size();
  }
  return size;
}

/// The block size of `data`, which must be `count` non-null blocks of
/// one non-zero size (CheckError otherwise).
std::size_t data_size(const std::vector<Block>& data, std::uint32_t count) {
  AEC_CHECK_MSG(data.size() == count, "encode: expected "
                                          << count << " data blocks, got "
                                          << data.size());
  for (const Block& block : data)
    AEC_CHECK_MSG(block, "encode: a null data block");
  return part_size(data, "encode");
}

/// A fresh block of `size` bytes holding Σ coeff(i) · inputs[i] over
/// GF(2^8); every input holds `size` bytes.
template <class Coeff>
Block combine(const std::vector<Block>& inputs, std::size_t size,
              Coeff coeff) {
  return Block::build(size, [&](std::span<std::uint8_t> out) {
    // The first term overwrites (mul_slice never reads the fresh
    // buffer); the rest accumulate.
    gf::mul_slice(out.data(), inputs[0].data(), size, coeff(0));
    for (std::size_t i = 1; i < inputs.size(); ++i)
      gf::axpy_slice(out.data(), inputs[i].data(), size, coeff(i));
  });
}

}  // namespace

// --- AeCodec ----------------------------------------------------------------

AeCodec::AeCodec(CodeParams params) : params_(std::move(params)) {}

std::string AeCodec::id() const { return params_.name(); }

// --- RsCodec ----------------------------------------------------------------

RsCodec::RsCodec(std::uint32_t k, std::uint32_t m)
    : k_(k), m_(m), parity_rows_(gf::cauchy_parity_matrix(k, m)) {
  AEC_CHECK_MSG(k >= 1 && m >= 1, "RS(k,m) requires k >= 1 and m >= 1");
}

std::string RsCodec::id() const {
  return "RS(" + std::to_string(k_) + "," + std::to_string(m_) + ")";
}

std::vector<Block> RsCodec::encode(const std::vector<Block>& data) const {
  const std::size_t size = data_size(data, k_);
  std::vector<Block> parities;
  parities.reserve(m_);
  for (std::uint32_t row = 0; row < m_; ++row)
    parities.push_back(combine(data, size, [&](std::size_t col) {
      return parity_rows_.at(row, col);
    }));
  return parities;
}

std::optional<PartIndexList> RsCodec::repair_indices(
    const PartIndexList& erased) const {
  check_erased_list(erased, k_ + m_);
  if (erased.size() > m_) return std::nullopt;
  // Repair reads the first k surviving parts.
  PartIndexList reads;
  reads.reserve(k_);
  for (PartIndex part = 0; part < k_ + m_ && reads.size() < k_; ++part)
    if (!std::binary_search(erased.begin(), erased.end(), part))
      reads.push_back(part);
  AEC_CHECK(reads.size() == k_);
  return reads;
}

bool RsCodec::repair(std::vector<Block>& parts) const {
  AEC_CHECK_MSG(parts.size() == k_ + m_,
                "repair: RS stripe must hold " << k_ + m_ << " parts");
  const std::size_t size = part_size(parts, "repair");
  std::vector<Block> inputs;  // the first k present parts
  std::vector<PartIndex> chosen;
  for (PartIndex part = 0; part < k_ + m_ && chosen.size() < k_; ++part)
    if (parts[part]) {
      chosen.push_back(part);
      inputs.push_back(parts[part]);
    }
  if (chosen.size() < k_) return false;  // more than m parts missing

  std::vector<Block> data(parts.begin(), parts.begin() + k_);
  if (std::any_of(data.begin(), data.end(),
                  [](const Block& part) { return !part; })) {
    // Row r of the generator [I_k ; C] that produced chosen part r: a
    // unit row for a data part, C's row for a parity. Its inverse maps
    // the chosen parts back to the data.
    gf::Matrix rows(k_, k_);
    for (std::uint32_t r = 0; r < k_; ++r) {
      if (chosen[r] < k_) {
        rows.set(r, chosen[r], 1);
        continue;
      }
      for (std::uint32_t c = 0; c < k_; ++c)
        rows.set(r, c, parity_rows_.at(chosen[r] - k_, c));
    }
    const auto inverse = rows.inverted();
    AEC_CHECK_MSG(inverse.has_value(),
                  "RS repair: Cauchy submatrix must be invertible");
    for (std::uint32_t out = 0; out < k_; ++out)
      if (!data[out])
        data[out] = combine(inputs, size, [&](std::size_t in) {
          return inverse->at(out, in);
        });
  }
  for (std::uint32_t r = 0; r < k_; ++r)
    if (!parts[r]) parts[r] = data[r];
  for (std::uint32_t row = 0; row < m_; ++row)
    if (!parts[k_ + row])
      parts[k_ + row] = combine(data, size, [&](std::size_t col) {
        return parity_rows_.at(row, col);
      });
  return true;
}

// --- ReplicationCodec -------------------------------------------------------

ReplicationCodec::ReplicationCodec(std::uint32_t copies) : copies_(copies) {
  AEC_CHECK_MSG(copies_ >= 1 && copies_ <= kMaxCopies,
                "replication needs 1 to " << kMaxCopies << " copies, got "
                                          << copies_);
}

std::string ReplicationCodec::id() const {
  return "REP(" + std::to_string(copies_) + ")";
}

std::vector<Block> ReplicationCodec::encode(
    const std::vector<Block>& data) const {
  data_size(data, 1);
  return std::vector<Block>(copies_ - 1, data.front());
}

std::optional<PartIndexList> ReplicationCodec::repair_indices(
    const PartIndexList& erased) const {
  check_erased_list(erased, copies_);
  for (PartIndex part = 0; part < copies_; ++part)
    if (!std::binary_search(erased.begin(), erased.end(), part))
      return PartIndexList{part};
  return std::nullopt;
}

bool ReplicationCodec::repair(std::vector<Block>& parts) const {
  AEC_CHECK_MSG(parts.size() == copies_,
                "repair: replication stripe must hold " << copies_
                                                        << " parts");
  part_size(parts, "repair");
  const auto present = std::find_if(
      parts.begin(), parts.end(), [](const Block& part) { return !!part; });
  if (present == parts.end()) return false;
  const Block copy = *present;
  for (Block& part : parts)
    if (!part) part = copy;
  return true;
}

// --- spec parsing ----------------------------------------------------------

namespace {

/// Parsed "FAMILY(arg,arg,…)" spec. A literal "-" argument (AE(1,-,-))
/// parses as kWildcardArg.
struct CodecSpec {
  static constexpr std::uint32_t kWildcardArg = 0xFFFFFFFFu;
  std::string family;
  std::vector<std::uint32_t> args;

  bool concrete() const {
    return std::find(args.begin(), args.end(), kWildcardArg) == args.end();
  }
};

CodecSpec parse_codec_spec(const std::string& spec) {
  const std::size_t open = spec.find('(');
  AEC_CHECK_MSG(open != std::string::npos && open > 0 &&
                    spec.back() == ')' && open + 1 < spec.size(),
                "codec spec '" << spec << "' must look like FAMILY(arg,…)");
  CodecSpec out;
  out.family = spec.substr(0, open);
  for (const char c : out.family)
    AEC_CHECK_MSG(std::isalnum(static_cast<unsigned char>(c)) != 0,
                  "codec spec '" << spec << "': bad family name");

  const std::string body = spec.substr(open + 1, spec.size() - open - 2);
  std::size_t begin = 0;
  while (begin <= body.size()) {
    const std::size_t comma = std::min(body.find(',', begin), body.size());
    const std::string token = body.substr(begin, comma - begin);
    if (token == "-") {
      out.args.push_back(CodecSpec::kWildcardArg);
    } else {
      AEC_CHECK_MSG(!token.empty() && token.size() <= 9 &&
                        token.find_first_not_of("0123456789") ==
                            std::string::npos,
                    "codec spec '" << spec << "': bad argument '" << token
                                   << "'");
      out.args.push_back(
          static_cast<std::uint32_t>(std::stoul(token)));
    }
    begin = comma + 1;
  }
  return out;
}

}  // namespace

std::unique_ptr<Codec> make_codec(const std::string& spec) {
  const CodecSpec parsed = parse_codec_spec(spec);
  const std::vector<std::uint32_t>& args = parsed.args;
  if (parsed.family == "AE") {
    // AE(1) and AE(1,-,-) are the single-entanglement chain.
    if (args == std::vector<std::uint32_t>{1} ||
        args == std::vector<std::uint32_t>{1, CodecSpec::kWildcardArg,
                                           CodecSpec::kWildcardArg})
      return std::make_unique<AeCodec>(CodeParams::single());
    AEC_CHECK_MSG(args.size() == 3 && parsed.concrete(),
                  "AE wants AE(alpha,s,p), AE(1) or AE(1,-,-)");
    return std::make_unique<AeCodec>(CodeParams(args[0], args[1], args[2]));
  }
  if (parsed.family == "RS") {
    AEC_CHECK_MSG(args.size() == 2 && parsed.concrete(), "RS wants RS(k,m)");
    return std::make_unique<RsCodec>(args[0], args[1]);
  }
  AEC_CHECK_MSG(parsed.family == "REP", "unknown codec family '"
                                            << parsed.family << "' in '"
                                            << spec << "'");
  AEC_CHECK_MSG(args.size() == 1 && parsed.concrete(), "REP wants REP(n)");
  return std::make_unique<ReplicationCodec>(args[0]);
}

}  // namespace aec
