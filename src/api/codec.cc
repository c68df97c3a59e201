#include "api/codec.h"

#include <algorithm>
#include <cctype>
#include <numeric>

#include "api/engine.h"
#include "common/check.h"
#include "core/codec/block_key.h"
#include "core/codec/repair_planner.h"
#include "core/lattice/lattice.h"
#include "pipeline/concurrent_block_store.h"

namespace aec {

namespace {

// --- AE part index ↔ lattice block key ------------------------------------
//
// Part p < n is data block d_{p+1}; parity part q = p − n belongs to node
// q/α + 1 on class classes()[q % α] — its output edge, whose tail is the
// node itself, so the key is direct.

BlockKey ae_part_key(const CodeParams& params, std::uint32_t n_data,
                     PartIndex part) {
  if (part < n_data) return BlockKey::data(static_cast<NodeIndex>(part) + 1);
  const std::uint32_t q = part - n_data;
  const auto alpha = static_cast<std::uint32_t>(params.classes().size());
  const auto node = static_cast<NodeIndex>(q / alpha) + 1;
  return BlockKey{BlockKey::Kind::kParity, params.classes()[q % alpha], node};
}

PartIndex ae_key_part(const CodeParams& params, std::uint32_t n_data,
                      const BlockKey& key) {
  if (key.is_data()) return static_cast<PartIndex>(key.index - 1);
  const auto alpha = static_cast<std::uint32_t>(params.classes().size());
  const auto cls_ordinal = static_cast<std::uint32_t>(key.cls);
  return n_data + static_cast<PartIndex>(key.index - 1) * alpha + cls_ordinal;
}

/// The payloads of `parts` of an AE group held in `store`, each of which
/// must be present.
std::vector<Bytes> read_parts(const BlockStore& store,
                              const CodeParams& params, std::uint32_t n_data,
                              const PartIndexList& parts) {
  std::vector<BlockKey> keys;
  keys.reserve(parts.size());
  for (const PartIndex part : parts)
    keys.push_back(ae_part_key(params, n_data, part));
  std::vector<Bytes> payloads;
  payloads.reserve(keys.size());
  for (std::optional<Bytes>& payload : store.get_batch(keys)) {
    AEC_CHECK(payload.has_value());
    payloads.push_back(std::move(*payload));
  }
  return payloads;
}

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

std::size_t uniform_block_size(const std::vector<Bytes>& blocks) {
  AEC_CHECK_MSG(!blocks.empty(), "encode: empty group");
  const std::size_t size = blocks.front().size();
  AEC_CHECK_MSG(size > 0, "encode: zero-sized blocks");
  for (const Bytes& b : blocks)
    AEC_CHECK_MSG(b.size() == size, "encode: ragged block sizes");
  return size;
}

}  // namespace

// --- AeCodec ----------------------------------------------------------------

AeCodec::AeCodec(CodeParams params) : params_(std::move(params)) {}

std::string AeCodec::id() const { return params_.name(); }

std::uint32_t AeCodec::parity_parts(std::uint32_t n_data) const {
  return n_data * static_cast<std::uint32_t>(params_.classes().size());
}

double AeCodec::storage_overhead_percent() const {
  return params_.storage_overhead_percent();
}

std::vector<Bytes> AeCodec::encode(const std::vector<Bytes>& data) const {
  const std::size_t block_size = uniform_block_size(data);
  // The group is one batch of a one-thread session on a private store.
  pipeline::ConcurrentBlockStore store;
  Engine engine(1);
  engine.open_session(std::make_shared<AeCodec>(params_), &store, block_size)
      ->append(data);
  const auto n_data = static_cast<std::uint32_t>(data.size());
  PartIndexList parities(parity_parts(n_data));
  std::iota(parities.begin(), parities.end(), n_data);
  return read_parts(store, params_, n_data, parities);
}

std::optional<PartIndexList> AeCodec::repair_indices(
    std::uint32_t n_data, const PartIndexList& erased) const {
  AEC_CHECK_MSG(n_data >= 1, "AE group needs at least one data block");
  check_erased_list(erased, group_total_parts(n_data));
  const Lattice lattice(params_, n_data, Lattice::Boundary::kOpen);
  AvailabilityMap avail(params_, n_data);
  for (const PartIndex part : erased)
    avail.set(ae_part_key(params_, n_data, part), false);
  const RepairPlanner planner(&lattice);
  const RepairPlan plan = planner.plan(avail);
  if (!plan.residue.empty()) return std::nullopt;

  // Survivors a step reads: every planned input that is not itself one of
  // the erased (i.e. repaired-earlier) blocks.
  PartIndexList reads;
  for (const auto& wave : plan.waves)
    for (const RepairStep& step : wave) {
      const RepairStepInputs inputs = repair_step_inputs(lattice, step);
      for (const std::optional<BlockKey>& key :
           {inputs.input, std::optional<BlockKey>(inputs.other)}) {
        if (!key) continue;  // open-lattice bootstrap (virtual zero block)
        const PartIndex part = ae_key_part(params_, n_data, *key);
        if (!std::binary_search(erased.begin(), erased.end(), part))
          reads.push_back(part);
      }
    }
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  return reads;
}

std::optional<std::vector<Bytes>> AeCodec::repair(
    const std::vector<std::optional<Bytes>>& parts,
    const PartIndexList& erased) const {
  const auto alpha = static_cast<std::uint32_t>(params_.classes().size());
  AEC_CHECK_MSG(!parts.empty() && parts.size() % (alpha + 1) == 0,
                "repair: group of " << parts.size()
                                    << " parts does not match α=" << alpha);
  const auto n_data = static_cast<std::uint32_t>(parts.size() / (alpha + 1));
  check_erased_list(erased, group_total_parts(n_data));

  pipeline::ConcurrentBlockStore store;
  std::size_t block_size = 0;
  for (std::size_t part = 0; part < parts.size(); ++part) {
    if (!parts[part]) continue;
    AEC_CHECK_MSG(block_size == 0 || parts[part]->size() == block_size,
                  "repair: ragged block sizes");
    block_size = parts[part]->size();
    store.put(ae_part_key(params_, n_data, static_cast<PartIndex>(part)),
              *parts[part]);
  }
  AEC_CHECK_MSG(block_size > 0, "repair: no part present");
  for (const PartIndex part : erased)
    AEC_CHECK_MSG(!parts[part], "repair: erased part " << part
                                                       << " holds a payload");

  Engine engine(1);
  const RepairReport report =
      engine
          .open_session(std::make_shared<AeCodec>(params_), &store,
                        block_size, n_data)
          ->repair_all();
  if (report.nodes_unrecovered + report.edges_unrecovered != 0)
    return std::nullopt;
  return read_parts(store, params_, n_data, erased);
}

// --- RsCodec ----------------------------------------------------------------

RsCodec::RsCodec(std::uint32_t k, std::uint32_t m) : rs_(k, m) {}

std::string RsCodec::id() const { return rs_.name(); }

std::uint32_t RsCodec::parity_parts(std::uint32_t n_data) const {
  AEC_CHECK_MSG(n_data == rs_.k(),
                "RS group must hold exactly k=" << rs_.k() << " data blocks");
  return rs_.m();
}

double RsCodec::storage_overhead_percent() const {
  return rs_.storage_overhead_percent();
}

std::vector<Bytes> RsCodec::encode(const std::vector<Bytes>& data) const {
  uniform_block_size(data);
  return rs_.encode(data);
}

std::optional<PartIndexList> RsCodec::repair_indices(
    std::uint32_t n_data, const PartIndexList& erased) const {
  check_erased_list(erased, group_total_parts(n_data));
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
  AEC_CHECK_MSG(copies_ >= 1, "replication needs at least one copy");
}

std::string ReplicationCodec::id() const {
  return "REP(" + std::to_string(copies_) + ")";
}

std::uint32_t ReplicationCodec::parity_parts(std::uint32_t n_data) const {
  AEC_CHECK_MSG(n_data == 1, "replication groups hold one data block");
  return copies_ - 1;
}

double ReplicationCodec::storage_overhead_percent() const {
  return 100.0 * (copies_ - 1);  // paper Table IV
}

std::vector<Bytes> ReplicationCodec::encode(
    const std::vector<Bytes>& data) const {
  uniform_block_size(data);
  AEC_CHECK_MSG(data.size() == 1, "replication groups hold one data block");
  return std::vector<Bytes>(copies_ - 1, data.front());
}

std::optional<PartIndexList> ReplicationCodec::repair_indices(
    std::uint32_t n_data, const PartIndexList& erased) const {
  check_erased_list(erased, group_total_parts(n_data));
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
