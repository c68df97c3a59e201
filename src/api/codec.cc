#include "api/codec.h"

#include <algorithm>
#include <cctype>

#include "common/check.h"

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

void check_uniform_blocks(const std::vector<Bytes>& blocks) {
  AEC_CHECK_MSG(!blocks.empty(), "encode: empty group");
  const std::size_t size = blocks.front().size();
  AEC_CHECK_MSG(size > 0, "encode: zero-sized blocks");
  for (const Bytes& b : blocks)
    AEC_CHECK_MSG(b.size() == size, "encode: ragged block sizes");
}

}  // namespace

// --- AeCodec ----------------------------------------------------------------

AeCodec::AeCodec(CodeParams params) : params_(std::move(params)) {}

std::string AeCodec::id() const { return params_.name(); }

// --- RsCodec ----------------------------------------------------------------

RsCodec::RsCodec(std::uint32_t k, std::uint32_t m) : rs_(k, m) {}

std::string RsCodec::id() const { return rs_.name(); }

std::vector<Bytes> RsCodec::encode(const std::vector<Bytes>& data) const {
  check_uniform_blocks(data);
  return rs_.encode(data);
}

std::optional<PartIndexList> RsCodec::repair_indices(
    const PartIndexList& erased) const {
  check_erased_list(erased, rs_.stripe_blocks());
  if (erased.size() > rs_.m()) return std::nullopt;
  // Decode reads the first k surviving parts.
  PartIndexList reads;
  reads.reserve(rs_.k());
  for (PartIndex part = 0;
       part < rs_.stripe_blocks() && reads.size() < rs_.k(); ++part)
    if (!std::binary_search(erased.begin(), erased.end(), part))
      reads.push_back(part);
  AEC_CHECK(reads.size() == rs_.k());
  return reads;
}

std::optional<std::vector<Bytes>> RsCodec::repair(
    const std::vector<std::optional<Bytes>>& parts,
    const PartIndexList& erased) const {
  AEC_CHECK_MSG(parts.size() == rs_.stripe_blocks(),
                "repair: RS group must hold " << rs_.stripe_blocks()
                                              << " parts");
  check_erased_list(erased, rs_.stripe_blocks());
  for (const PartIndex part : erased)
    AEC_CHECK_MSG(!parts[part], "repair: erased part " << part
                                                       << " holds a payload");
  const auto data = rs_.decode(parts);
  if (!data) return std::nullopt;

  // Parity parts are rebuilt by re-encoding the recovered data.
  std::vector<Bytes> parities;
  if (std::any_of(erased.begin(), erased.end(),
                  [&](PartIndex part) { return part >= rs_.k(); }))
    parities = rs_.encode(*data);

  std::vector<Bytes> rebuilt;
  rebuilt.reserve(erased.size());
  for (const PartIndex part : erased)
    rebuilt.push_back(part < rs_.k() ? (*data)[part]
                                     : parities[part - rs_.k()]);
  return rebuilt;
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

std::vector<Bytes> ReplicationCodec::encode(
    const std::vector<Bytes>& data) const {
  check_uniform_blocks(data);
  AEC_CHECK_MSG(data.size() == 1, "replication groups hold one data block");
  return std::vector<Bytes>(copies_ - 1, data.front());
}

std::optional<PartIndexList> ReplicationCodec::repair_indices(
    const PartIndexList& erased) const {
  check_erased_list(erased, copies_);
  for (PartIndex part = 0; part < copies_; ++part)
    if (!std::binary_search(erased.begin(), erased.end(), part))
      return PartIndexList{part};
  return std::nullopt;
}

std::optional<std::vector<Bytes>> ReplicationCodec::repair(
    const std::vector<std::optional<Bytes>>& parts,
    const PartIndexList& erased) const {
  AEC_CHECK_MSG(parts.size() == copies_,
                "repair: replication group must hold " << copies_
                                                       << " parts");
  check_erased_list(erased, copies_);
  for (const PartIndex part : erased)
    AEC_CHECK_MSG(!parts[part], "repair: erased part " << part
                                                       << " holds a payload");
  for (PartIndex part = 0; part < copies_; ++part)
    if (parts[part]) return std::vector<Bytes>(erased.size(), *parts[part]);
  return std::nullopt;
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
