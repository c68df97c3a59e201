#include "core/codec/store_registry.h"

#include <cctype>
#include <charconv>

#include "cluster/cluster_store.h"
#include "common/check.h"
#include "core/codec/file_block_store.h"
#include "pipeline/concurrent_block_store.h"

namespace aec {

StoreSpec parse_store_spec(const std::string& spec) {
  StoreSpec out;
  const std::size_t open = spec.find('(');
  if (open == std::string::npos) {
    out.family = spec;  // bare family: "file", "mem"
  } else {
    AEC_CHECK_MSG(open > 0 && spec.back() == ')' && open + 1 < spec.size() - 1,
                  "store spec '" << spec
                                 << "' must look like FAMILY or "
                                    "FAMILY(arg,…)");
    out.family = spec.substr(0, open);
    // Split the body at top-level commas; nested "child(…)" specs stay
    // whole tokens. Depth is tracked so unbalanced parens are caught
    // here, not inside a child factory with a garbled token.
    const std::string body = spec.substr(open + 1, spec.size() - open - 2);
    std::string token;
    int depth = 0;
    const auto seal_token = [&] {
      AEC_CHECK_MSG(!token.empty() && token.size() <= 64,
                    "store spec '" << spec << "': bad argument '" << token
                                   << "'");
      out.args.push_back(std::move(token));
      token.clear();
    };
    for (const char c : body) {
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        AEC_CHECK_MSG(depth >= 0,
                      "store spec '" << spec << "': unbalanced parentheses");
      }
      if (c == ',' && depth == 0) {
        seal_token();
        continue;
      }
      AEC_CHECK_MSG(!std::isspace(static_cast<unsigned char>(c)),
                    "store spec '" << spec << "': whitespace in argument");
      token.push_back(c);
    }
    AEC_CHECK_MSG(depth == 0,
                  "store spec '" << spec << "': unbalanced parentheses");
    seal_token();
  }
  AEC_CHECK_MSG(!out.family.empty(), "empty store spec");
  for (const char c : out.family)
    AEC_CHECK_MSG(std::isalnum(static_cast<unsigned char>(c)) != 0,
                  "store spec '" << spec << "': bad family name");
  return out;
}

std::uint64_t store_spec_uint(const StoreSpec& spec, std::size_t i) {
  AEC_CHECK_MSG(i < spec.args.size(),
                spec.family << " spec: missing argument " << i);
  const std::string& token = spec.args[i];
  // The full uint64 range parses (the cluster placement seed is a
  // 64-bit parameter); from_chars rejects signs, spaces and overflow.
  // Range limits on counts are the callers' to enforce.
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  AEC_CHECK_MSG(!token.empty() && ec == std::errc() &&
                    ptr == token.data() + token.size(),
                spec.family << " spec: argument '" << token
                            << "' is not an unsigned number");
  return value;
}

bool store_spec_is_durable(const std::string& spec) {
  const StoreSpec parsed = parse_store_spec(spec);
  if (parsed.family == "mem") return false;
  if (parsed.family == "cluster" && parsed.args.size() >= 3)
    return store_spec_is_durable(parsed.args[2]);
  return true;
}

StoreRegistry::StoreRegistry() {
  register_family(
      "mem",
      [](const StoreSpec& spec,
         const std::filesystem::path&) -> std::unique_ptr<BlockStore> {
        AEC_CHECK_MSG(spec.args.empty(), "mem store takes no arguments");
        return std::make_unique<pipeline::ConcurrentBlockStore>();
      });
  register_family(
      "file",
      [](const StoreSpec& spec,
         const std::filesystem::path& root) -> std::unique_ptr<BlockStore> {
        AEC_CHECK_MSG(spec.args.empty(), "file store takes no arguments");
        return std::make_unique<FileBlockStore>(root);
      });
  register_family(
      "sharded",
      [](const StoreSpec& spec,
         const std::filesystem::path& root) -> std::unique_ptr<BlockStore> {
        AEC_CHECK_MSG(spec.args.size() <= 2,
                      "sharded store wants sharded, sharded(N) or "
                      "sharded(N,wb|sync)");
        const std::uint64_t shards = spec.args.empty()
                                         ? FileBlockStore::kDefaultShards
                                         : store_spec_uint(spec, 0);
        bool write_behind = true;
        if (spec.args.size() == 2) {
          AEC_CHECK_MSG(spec.args[1] == "wb" || spec.args[1] == "sync",
                        "sharded store mode must be wb or sync, got '"
                            << spec.args[1] << "'");
          write_behind = spec.args[1] == "wb";
        }
        // The store range-checks the count before creating anything.
        return std::make_unique<FileBlockStore>(
            root, static_cast<std::size_t>(shards), write_behind);
      });
  register_family(
      "cluster",
      [](const StoreSpec& spec,
         const std::filesystem::path& root) -> std::unique_ptr<BlockStore> {
        AEC_CHECK_MSG(spec.args.size() == 3 || spec.args.size() == 4,
                      "cluster store wants cluster(N,policy,child[,seed])");
        const std::uint64_t nodes = store_spec_uint(spec, 0);
        AEC_CHECK_MSG(nodes >= cluster::ClusterStore::kMinNodes &&
                          nodes <= cluster::ClusterStore::kMaxNodes,
                      "cluster store wants "
                          << cluster::ClusterStore::kMinNodes << ".."
                          << cluster::ClusterStore::kMaxNodes
                          << " nodes, got " << nodes);
        const cluster::PlacementPolicy policy =
            cluster::parse_placement_policy(spec.args[1]);
        // The child spec must at least parse to a registered family
        // before any node directory is created.
        const StoreSpec child = parse_store_spec(spec.args[2]);
        AEC_CHECK_MSG(StoreRegistry::instance().has_family(child.family),
                      "cluster store: unknown child family '"
                          << child.family << "'");
        const std::uint64_t seed =
            spec.args.size() == 4 ? store_spec_uint(spec, 3) : 0;
        return std::make_unique<cluster::ClusterStore>(
            root, static_cast<std::uint32_t>(nodes), policy, spec.args[2],
            seed);
      });
}

StoreRegistry& StoreRegistry::instance() {
  static StoreRegistry registry;
  return registry;
}

void StoreRegistry::register_family(const std::string& family,
                                    Factory factory) {
  AEC_CHECK_MSG(!family.empty(), "store family name must not be empty");
  AEC_CHECK_MSG(factory != nullptr, "store factory must not be null");
  factories_[family] = std::move(factory);
}

bool StoreRegistry::has_family(const std::string& family) const {
  return factories_.contains(family);
}

std::unique_ptr<BlockStore> StoreRegistry::make(
    const std::string& spec, const std::filesystem::path& root) const {
  const StoreSpec parsed = parse_store_spec(spec);
  const auto it = factories_.find(parsed.family);
  AEC_CHECK_MSG(it != factories_.end(), "unknown store family '"
                                            << parsed.family << "' in '"
                                            << spec << "'");
  auto store = it->second(parsed, root);
  AEC_CHECK(store != nullptr);
  return store;
}

std::unique_ptr<BlockStore> make_store(const std::string& spec,
                                       const std::filesystem::path& root) {
  return StoreRegistry::instance().make(spec, root);
}

}  // namespace aec
