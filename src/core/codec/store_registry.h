// String-keyed block-store factory — the storage-side mirror of the
// CodecRegistry. An archive records its backend as a spec string in the
// manifest ("file", "sharded(8)", "mem") exactly as it records its codec,
// so open() rebuilds the same layout it was created with, and aectool's
// --store flag reaches every registered backend without new code.
//
// Built-in families (every one thread-safe, so any of them can back a
// session at any thread count):
//   mem        — pipeline::ConcurrentBlockStore (ephemeral; tests and
//                simulations)
//   file       — FileBlockStore, flat layout (one directory tree
//                behind one mutex, synchronous writes)
//   sharded(N[,wb|sync])
//              — FileBlockStore, sharded layout: N directory shards,
//                each with its own lock, write-behind unless "sync"
//                (the default N is kDefaultShards when the argument is
//                omitted: "sharded")
//   cluster(N,policy,child[,seed])
//              — ClusterStore routing blocks across N child backends
//                (failure domains) by placement policy (random | rr |
//                strand); `child` is any non-cluster spec, nested parens
//                allowed: "cluster(4,strand,sharded(8))". The optional
//                seed decorrelates random placement.
//
// register_family() adds or replaces a backend (custom stores slot in
// the same way custom codec families do).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/codec/block_store.h"

namespace aec {

/// Parsed "family" or "family(arg,arg,…)" store spec. Arguments are raw
/// tokens split at top-level commas (a token may itself be a nested
/// "family(…)" spec); numeric parameters go through store_spec_uint.
struct StoreSpec {
  std::string family;
  std::vector<std::string> args;
};

/// Splits a spec string; throws CheckError on syntax errors (unbalanced
/// parentheses, empty arguments, trailing junk, bad family names).
StoreSpec parse_store_spec(const std::string& spec);

/// Argument i of `spec` as an unsigned integer; throws CheckError when
/// the token is not a plain small decimal number.
std::uint64_t store_spec_uint(const StoreSpec& spec, std::size_t i);

/// True when every backend the spec names survives the process ("mem"
/// anywhere — including as a cluster child — makes it ephemeral).
/// Unknown families count as durable; the registry rejects them later
/// with a better message.
bool store_spec_is_durable(const std::string& spec);

class StoreRegistry {
 public:
  using Factory = std::function<std::unique_ptr<BlockStore>(
      const StoreSpec& spec, const std::filesystem::path& root)>;

  /// The process-wide registry.
  static StoreRegistry& instance();

  void register_family(const std::string& family, Factory factory);
  bool has_family(const std::string& family) const;

  /// Parses `spec` and builds the backend rooted at `root` (durable
  /// families create their directories there; "mem" ignores it). Throws
  /// CheckError on unknown families or invalid parameters.
  std::unique_ptr<BlockStore> make(const std::string& spec,
                                   const std::filesystem::path& root) const;

 private:
  StoreRegistry();

  std::map<std::string, Factory> factories_;
};

/// Shorthand for StoreRegistry::instance().make(spec, root).
std::unique_ptr<BlockStore> make_store(const std::string& spec,
                                       const std::filesystem::path& root);

}  // namespace aec
