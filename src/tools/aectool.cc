// aectool — command-line front end for redundant archives.
//
//   aectool init    --root DIR [--code AE(3,2,5)] [--store file]
//                   [--block-size 4096]
//   aectool put     --root DIR --name NAME [--threads N] FILE
//   aectool get     --root DIR --name NAME [--threads N] [-o OUT]
//   aectool ls      --root DIR
//   aectool stat    --root DIR [--json] [--metrics]
//   aectool scrub   --root DIR [--threads N] [--metrics]
//   aectool damage  --root DIR --fraction 0.2 [--seed 7]
//   aectool reindex --root DIR
//   aectool node    <fail|heal|rebuild|stat> --root DIR [--node K]
//                   [--threads N]
//   aectool trace   <scrub|get|put> --root DIR [--name NAME] [--threads N]
//                   [-o OUT] [FILE]
//
// `--code` accepts any codec spec — AE(α,s,p) entanglement,
// RS(k,m) Reed-Solomon stripes, REP(n) replication — and `--store` any
// registered *durable* store backend ("file", "sharded(8)",
// "cluster(4,strand,file)"; anything built on the library's ephemeral
// "mem" is rejected here); both are recorded in the manifest, so every
// later command rebuilds the same layout. `damage` deletes random block
// files (testing aid); `scrub` repairs everything recoverable and runs
// the integrity scan, and exits 1 if a block stays unrecovered or the
// scan finds corruption (an inconsistent parity or a suspect block —
// reported, not yet repaired); `stat` prints the availability census from the
// incremental index, which every open seeds from the store; `reindex`
// rescans the store and reseeds the index (recovery from damage made out
// of band while a process holds the archive open). The
// `node` subcommands drive multi-node cluster archives: fail/heal
// inject whole-failure-domain outages, rebuild re-materializes a failed
// node onto a replacement backend, stat prints the per-node census.
// `--threads` sizes the execution engine (worker pool) for
// put/get/scrub/rebuild — the stored bytes are identical at every
// thread count.
//
// Observability: `stat --json` emits the spec + availability census as
// one JSON object; `--metrics` (stat, scrub) adds the process metrics
// snapshot; cluster scrub/rebuild print per-node repair traffic (the
// Dimakis bytes-per-surviving-node view); `trace <op>` re-runs an
// operation with the span ring enabled and dumps the spans as JSONL.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "common/check.h"
#include "common/cli.h"
#include "common/cpu.h"
#include "core/codec/store_registry.h"
#include "obs/trace.h"
#include "tools/archive.h"

namespace {

using namespace aec;
using namespace aec::tools;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: aectool <init|put|get|ls|stat|scrub|damage|reindex|node"
      "|trace> --root DIR [options]\n"
      "  init    --code SPEC --store STORE --block-size N\n"
      "          create an archive\n"
      "          (SPEC: AE(a,s,p) | RS(k,m) | REP(n);"
      " default AE(3,2,5))\n"
      "          (STORE: file | sharded(N) |"
      " cluster(N,random|rr|strand,CHILD[,seed]); default file)\n"
      "  put     --name NAME [--threads N] FILE\n"
      "  get     --name NAME [--threads N] [-o OUT]\n"
      "  ls                                  list archived files\n"
      "  stat    [--json] [--metrics]        archive + availability"
      " summary\n"
      "  scrub   [--threads N] [--metrics]   repair + integrity scan\n"
      "          (exits 1 if a block stays unrecovered, or the scan finds"
      " an\n"
      "          inconsistent parity or a suspect block)\n"
      "  damage  --fraction F [--seed S]     delete random blocks\n"
      "  reindex                             rescan store + reseed index\n"
      "  node fail    --node K               take a cluster node down\n"
      "  node heal    --node K               bring it back (data intact)\n"
      "  node rebuild --node K [--threads N] replace + re-materialize it\n"
      "  node stat                           per-node census\n"
      "  trace <scrub|get|put> [--name NAME] [--threads N] [-o OUT] "
      "[FILE]\n"
      "          run the operation with span tracing on, dump spans "
      "as JSONL\n"
      "          [--request-id N]  keep only spans stamped with id N\n");
  std::exit(2);
}

/// Options and positional arguments each command accepts (put's FILE,
/// node's subcommand, trace's operation and put FILE); anything else is
/// an error, not something to swallow silently.
const cli::Commands kCommands = {
    {"init", {{"--root", "--code", "--store", "--block-size"}}},
    {"put", {{"--root", "--name", "--threads"}, 1}},
    {"get", {{"--root", "--name", "--threads", "--out"}}},
    {"ls", {{"--root"}}},
    {"stat", {{"--root", "--json", "--metrics"}}},
    {"scrub", {{"--root", "--threads", "--metrics"}}},
    {"damage", {{"--root", "--fraction", "--seed"}}},
    {"reindex", {{"--root"}}},
    {"node", {{"--root", "--node", "--threads"}, 1}},
    {"trace", {{"--root", "--name", "--threads", "--out", "--request-id"}, 2}},
};

/// Valueless boolean options (present or absent, no argument).
const std::set<std::string> kFlagOptions = {"--json", "--metrics"};

/// An unsigned option in [lo, hi], `fallback` when absent; a bad value
/// exits 2 with the usage text (cli::parse_unsigned).
std::uint64_t number_option(const cli::Args& args, const char* key,
                            std::uint64_t fallback, std::uint64_t lo,
                            std::uint64_t hi) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  return cli::parse_unsigned(key, it->second, lo, hi, usage);
}

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Per-node traffic delta table for one operation (cluster archives):
/// the survivors' read bytes ARE the repair traffic of a rebuild — the
/// Dimakis bytes-per-surviving-node view.
void print_traffic_delta(
    const aec::cluster::ClusterStore& cluster,
    const std::vector<aec::cluster::NodeTraffic>& before) {
  std::printf("node traffic (this operation):\n");
  for (std::uint32_t k = 0; k < cluster.node_count(); ++k) {
    const aec::cluster::NodeTraffic now = cluster.node_traffic(k);
    std::printf("  node %-4u read %8llu blk / %12llu B   "
                "wrote %8llu blk / %12llu B%s\n",
                k,
                static_cast<unsigned long long>(now.blocks_read -
                                                before[k].blocks_read),
                static_cast<unsigned long long>(now.bytes_read -
                                                before[k].bytes_read),
                static_cast<unsigned long long>(now.blocks_written -
                                                before[k].blocks_written),
                static_cast<unsigned long long>(now.bytes_written -
                                                before[k].bytes_written),
                cluster.node_down(k) ? "  (down)" : "");
  }
}

/// Streams the file at `path` into the archive in bounded chunks, so
/// memory stays at the ingest window whatever the file's size. A read
/// error throws with the writer unclosed, which commits nothing.
const FileEntry& put_file(Archive& archive, const std::string& name,
                          const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> in(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  AEC_CHECK_MSG(in != nullptr,
                "cannot open " << path << ": " << std::strerror(errno));
  FileWriter writer = archive.begin_file(name);
  Bytes chunk(std::size_t{1} << 20);
  while (const std::size_t got =
             std::fread(chunk.data(), 1, chunk.size(), in.get()))
    writer.write(BytesView(chunk.data(), got));
  AEC_CHECK_MSG(std::ferror(in.get()) == 0,
                "cannot read " << path << ": " << std::strerror(errno));
  return writer.close();
}

int run(const cli::Args& args) {
  const std::string root = cli::require(args, "--root", usage);

  if (args.command == "init") {
    const auto code_it = args.options.find("--code");
    const std::string spec =
        code_it == args.options.end() ? "AE(3,2,5)" : code_it->second;
    const auto store_it = args.options.find("--store");
    const std::string store_spec =
        store_it == args.options.end() ? std::string() : store_it->second;
    if (!store_spec.empty()) {
      // The library allows "mem" (tests, simulations), but a CLI archive
      // must survive the process: an in-memory backend — even as a
      // cluster child — would report success and lose every block at
      // exit.
      AEC_CHECK_MSG(store_spec_is_durable(store_spec),
                    "--store '" << store_spec
                                << "' is ephemeral; a durable archive "
                                   "needs file, sharded(N) or a cluster "
                                   "of them");
    }
    // Capped at 1 MiB: the ingest window holds 256 blocks per worker, so
    // that already buffers 256 MiB per worker.
    const std::size_t block_size =
        number_option(args, "--block-size", 4096, 1, std::size_t{1} << 20);
    auto archive = Archive::create(root, spec, block_size, {}, store_spec);
    std::printf("initialized %s archive at %s (store %s, block size %zu)\n",
                archive->codec().id().c_str(), root.c_str(),
                archive->store_spec().c_str(), block_size);
    return 0;
  }

  // --threads N (default 1) sizes the engine's worker pool: parallel
  // entanglement/stripe encode on put, wave-parallel repair on
  // get/scrub. The remaining commands run serially.
  const std::size_t threads = number_option(args, "--threads", 1, 1, 1024);
  auto archive = Archive::open(root, Engine::with_threads(threads));

  if (args.command == "put") {
    if (args.positional.size() != 1) {
      std::fprintf(stderr, "error: put needs exactly one FILE\n");
      usage();
    }
    const FileEntry& entry =
        put_file(*archive, cli::require(args, "--name", usage),
                 args.positional[0]);
    std::printf("archived '%s': %llu bytes in %llu block(s) from d%lld%s\n",
                entry.name.c_str(),
                static_cast<unsigned long long>(entry.bytes),
                static_cast<unsigned long long>(
                    entry.block_count(archive->block_size())),
                static_cast<long long>(entry.first_block),
                threads > 1 ? " (parallel engine)" : "");
    return 0;
  }
  if (args.command == "get") {
    const std::string& name = cli::require(args, "--name", usage);
    std::optional<FileReader> reader = archive->try_open_reader(name);
    if (!reader) {
      std::fprintf(stderr, "error: file unknown or irrecoverable\n");
      return 1;
    }
    // Stream window by window through the pipelined reader: peak memory
    // is one lookahead window, not the whole file.
    const auto out_it = args.options.find("--out");
    const bool to_stdout = out_it == args.options.end();
    std::ofstream out;
    if (!to_stdout) {
      out.open(out_it->second, std::ios::binary | std::ios::trunc);
      AEC_CHECK_MSG(out.good(), "cannot write " << out_it->second);
    }
    const auto start = std::chrono::steady_clock::now();
    while (true) {
      const auto chunk = reader->next_chunk();
      if (!chunk) {
        std::fprintf(stderr, "error: file unknown or irrecoverable\n");
        if (!to_stdout) {
          out.close();
          std::remove(out_it->second.c_str());  // drop the partial restore
        }
        return 1;
      }
      if (chunk->empty()) break;
      if (to_stdout) {
        std::fwrite(chunk->data(), 1, chunk->size(), stdout);
      } else {
        out.write(reinterpret_cast<const char*>(chunk->data()),
                  static_cast<std::streamsize>(chunk->size()));
        AEC_CHECK_MSG(out.good(), "cannot write " << out_it->second);
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double mb_per_s =
        static_cast<double>(reader->bytes_delivered()) / (1024.0 * 1024.0) /
        std::max(seconds, 1e-9);
    if (to_stdout) {
      // The payload owns stdout; the report goes to stderr.
      std::fprintf(stderr, "restored '%s' (%llu bytes, %.1f MB/s)\n",
                   name.c_str(),
                   static_cast<unsigned long long>(reader->bytes_delivered()),
                   mb_per_s);
    } else {
      out.close();
      AEC_CHECK_MSG(out.good(), "cannot write " << out_it->second);
      std::printf("restored '%s' (%llu bytes, %.1f MB/s) to %s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(reader->bytes_delivered()),
                  mb_per_s, out_it->second.c_str());
    }
    return 0;
  }
  if (args.command == "ls") {
    for (const FileEntry& entry : archive->files())
      std::printf("%-40s %12llu bytes  d%lld+\n", entry.name.c_str(),
                  static_cast<unsigned long long>(entry.bytes),
                  static_cast<long long>(entry.first_block));
    return 0;
  }
  if (args.command == "stat") {
    const bool want_json = args.options.count("--json") != 0;
    const bool want_metrics = args.options.count("--metrics") != 0;
    if (want_json) {
      // One JSON object: spec + availability census (+ metrics snapshot
      // when asked), so scripts stop parsing the human table. The same
      // payload the daemon's STAT opcode serves.
      std::printf("%s\n", archive->stat_json(want_metrics).c_str());
      return 0;
    }
    std::printf("codec       : %s\n", archive->codec().id().c_str());
    std::printf("store       : %s\n", archive->store_spec().c_str());
    std::printf("block size  : %zu\n", archive->block_size());
    std::printf("kernel      : %s\n", aec::selected_kernel_name());
    std::printf("data blocks : %llu\n",
                static_cast<unsigned long long>(archive->blocks()));
    std::printf("files       : %zu\n", archive->files().size());
    std::printf("availability:\n");
    std::uint64_t expected_total = 0;
    for (const AvailabilityClassSummary& row :
         archive->availability_summary()) {
      expected_total += row.expected;
      std::printf("  %-10s %12llu/%llu present, %llu missing\n",
                  row.label.c_str(),
                  static_cast<unsigned long long>(row.expected - row.missing),
                  static_cast<unsigned long long>(row.expected),
                  static_cast<unsigned long long>(row.missing));
    }
    std::printf("blocks      : %llu expected (data + redundancy)\n",
                static_cast<unsigned long long>(expected_total));
    std::printf("missing     : %llu blocks\n",
                static_cast<unsigned long long>(archive->missing_blocks()));
    const obs::HealthSummary health = archive->health().summary();
    if (health.lattice_mode) {
      std::printf("health      : %llu degraded, %llu vulnerable, "
                  "min margin %u/%u\n",
                  static_cast<unsigned long long>(health.degraded_blocks),
                  static_cast<unsigned long long>(health.vulnerable_blocks),
                  health.min_margin, health.alpha);
      const auto worst = archive->health().worst(5);
      if (!worst.empty()) {
        std::printf("  worst     :");
        for (const obs::BlockHealth& b : worst)
          std::printf(" d%llu(m%u)",
                      static_cast<unsigned long long>(b.index), b.margin);
        std::printf("\n");
      }
    } else if (health.degraded()) {
      std::printf("health      : %llu data + %llu parity block(s) missing\n",
                  static_cast<unsigned long long>(health.data_missing),
                  static_cast<unsigned long long>(health.parity_missing));
    }
    if (want_metrics) {
      std::printf("metrics:\n");
      archive->metrics().print(stdout);
    }
    return 0;
  }
  if (args.command == "scrub") {
    std::vector<aec::cluster::NodeTraffic> traffic_before;
    if (archive->cluster() != nullptr)
      traffic_before = archive->cluster()->traffic();
    const ScrubReport report = archive->scrub();
    // Repairs routed to a down node were staged in volatile memory: the
    // scrub result is real (recoverability proven, reads work through
    // the staging overlay) but nothing is durable on the dead domain.
    if (archive->cluster() != nullptr &&
        archive->cluster()->any_node_down())
      std::printf("NOTE: a cluster node is down — repairs routed to it "
                  "are staged in memory only and vanish at exit; run "
                  "'node rebuild' (or 'node heal') to persist them\n");
    std::printf("repaired    : %llu data + %llu parity blocks in %u "
                "round(s)\n",
                static_cast<unsigned long long>(
                    report.repair.nodes_repaired_total),
                static_cast<unsigned long long>(
                    report.repair.edges_repaired_total),
                report.repair.rounds);
    std::printf("repair time : %.3f s (%.0f blocks/s, %zu thread%s)\n",
                report.repair.wall_seconds,
                report.repair.blocks_per_second(), archive->threads(),
                archive->threads() == 1 ? "" : "s");
    std::printf("unrecovered : %llu\n",
                static_cast<unsigned long long>(
                    report.repair.nodes_unrecovered +
                    report.repair.edges_unrecovered));
    std::printf("integrity   : %llu inconsistent parities, %zu suspect "
                "blocks\n",
                static_cast<unsigned long long>(
                    report.inconsistent_parities),
                report.suspect_nodes.size());
    if (archive->cluster() != nullptr)
      print_traffic_delta(*archive->cluster(), traffic_before);
    if (args.options.count("--metrics") != 0) {
      std::printf("metrics:\n");
      archive->metrics().print(stdout);
    }
    return cli::scrub_exit_status(
        report.repair.nodes_unrecovered, report.inconsistent_parities,
        report.suspect_nodes.size());
  }
  if (args.command == "damage") {
    const double fraction =
        cli::parse_real("--fraction", cli::require(args, "--fraction", usage),
                        0.0, 1.0, usage);
    const std::uint64_t seed = number_option(args, "--seed", 1, 0, kMaxU64);
    const std::uint64_t destroyed = archive->inject_damage(fraction, seed);
    std::printf("destroyed %llu block file(s)\n",
                static_cast<unsigned long long>(destroyed));
    return 0;
  }
  if (args.command == "reindex") {
    const std::uint64_t missing = archive->reindex();
    std::printf("reindexed: %llu block(s) missing\n",
                static_cast<unsigned long long>(missing));
    return 0;
  }
  if (args.command == "node") {
    if (args.positional.size() != 1) {
      std::fprintf(stderr, "error: node wants exactly one subcommand "
                           "(fail | heal | rebuild | stat)\n");
      usage();
    }
    const std::string& sub = args.positional[0];
    auto* cluster = archive->cluster();
    AEC_CHECK_MSG(cluster != nullptr,
                  "store '" << archive->store_spec()
                            << "' is not a cluster; node commands need "
                               "a cluster(...) archive");
    if (sub == "stat") {
      std::printf("cluster     : %u node(s), %s placement, child %s\n",
                  cluster->node_count(),
                  aec::cluster::to_string(cluster->policy()),
                  cluster->child_spec().c_str());
      for (std::uint32_t k = 0; k < cluster->node_count(); ++k)
        std::printf("  node %-4u %-6s %12llu block(s)  domain %s\n", k,
                    cluster->node_down(k) ? "DOWN" : "up",
                    static_cast<unsigned long long>(cluster->node_blocks(k)),
                    cluster->node_domain(k).c_str());
      return 0;
    }
    const auto node = static_cast<std::uint32_t>(
        cli::parse_unsigned("--node", cli::require(args, "--node", usage), 0,
                            9999, usage));
    if (sub == "fail") {
      archive->fail_node(node);
      std::printf("node %u is down (%llu block(s) unavailable)\n", node,
                  static_cast<unsigned long long>(
                      archive->missing_blocks()));
      return 0;
    }
    if (sub == "heal") {
      archive->heal_node(node);
      std::printf("node %u is back up (%llu block(s) still missing)\n",
                  node,
                  static_cast<unsigned long long>(
                      archive->missing_blocks()));
      return 0;
    }
    if (sub == "rebuild") {
      const std::vector<aec::cluster::NodeTraffic> traffic_before =
          cluster->traffic();
      const RepairReport report = archive->rebuild_node(node);
      std::printf("rebuilt node %u: %llu block(s) re-materialized in %u "
                  "round(s), %.3f s (%.0f blocks/s)\n",
                  node,
                  static_cast<unsigned long long>(
                      report.blocks_repaired_total()),
                  report.rounds, report.wall_seconds,
                  report.blocks_per_second());
      print_traffic_delta(*cluster, traffic_before);
      const std::uint64_t unrecovered =
          report.nodes_unrecovered + report.edges_unrecovered;
      if (unrecovered > 0)
        std::printf("unrecovered : %llu block(s)\n",
                    static_cast<unsigned long long>(unrecovered));
      return unrecovered == 0 ? 0 : 1;
    }
    std::fprintf(stderr, "error: unknown node subcommand '%s'\n",
                 sub.c_str());
    usage();
  }
  if (args.command == "trace") {
    if (args.positional.empty()) {
      std::fprintf(stderr,
                   "error: trace wants a subcommand (scrub | get | put)\n");
      usage();
    }
    const std::string& sub = args.positional[0];
    const std::uint64_t request_id =
        number_option(args, "--request-id", 0, 0, kMaxU64);
    obs::TraceRing& ring = obs::TraceRing::global();
    ring.enable();
    if (sub == "scrub") {
      archive->scrub();
    } else if (sub == "get") {
      // The streamed read `get` runs: one read.window span per window.
      FileReader reader =
          archive->open_reader(cli::require(args, "--name", usage));
      std::optional<BytesView> chunk = reader.next_chunk();
      while (chunk && !chunk->empty()) chunk = reader.next_chunk();
      AEC_CHECK_MSG(chunk.has_value(), "file irrecoverable");
    } else if (sub == "put") {
      AEC_CHECK_MSG(args.positional.size() == 2,
                    "trace put needs exactly one FILE");
      put_file(*archive, cli::require(args, "--name", usage),
               args.positional[1]);
    } else {
      std::fprintf(stderr, "error: unknown trace subcommand '%s'\n",
                   sub.c_str());
      usage();
    }
    ring.disable();
    const auto out_it = args.options.find("--out");
    if (out_it == args.options.end()) {
      ring.dump_jsonl(stdout, request_id);
    } else {
      std::FILE* out = std::fopen(out_it->second.c_str(), "w");
      AEC_CHECK_MSG(out != nullptr, "cannot write " << out_it->second);
      ring.dump_jsonl(out, request_id);
      std::fclose(out);
      std::fprintf(stderr, "trace: %zu span(s) written to %s\n",
                   ring.events().size(), out_it->second.c_str());
    }
    return 0;
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(cli::parse(argc, argv, kCommands, kFlagOptions, usage));
  } catch (const aec::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.message());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
