// aecc — client CLI for the aecd archive daemon.
//
//   aecc ping    --port P [--host H]
//   aecc put     --port P --name NAME FILE
//   aecc get     --port P --name NAME [-o OUT]
//   aecc ls      --port P
//   aecc stat    --port P [--metrics]         remote stat JSON
//   aecc metrics --port P                     metrics snapshot JSON
//   aecc scrub   --port P
//   aecc node    <fail|heal|rebuild> --port P --node K
//   aecc trace   <ping|put|get|ls|stat|metrics|scrub> --port P [...]
//                [--request-id N]
//
// The network twin of aectool: put streams the file up in bounded
// chunks, get streams it back down (repairing through the codec on the
// server as needed), and the control-plane commands mirror their local
// counterparts. Server-side failures arrive as typed errors with the
// original CheckError text and exit 1, as does a scrub that leaves a
// block unrecovered or finds an inconsistent parity; usage errors exit 2.
//
// `trace <cmd>` re-runs a command with wire-level trace propagation on:
// every frame of the operation carries one fresh trace id (the AEC2
// header), the daemon's "net.request" spans adopt it, and the client's
// own "net.client.request" span ring is dumped as JSONL to stdout
// afterwards (use -o for traced gets — the payload would share stdout).
// The trace id is printed to stderr; pass it to --request-id here (or
// to the daemon's GET /trace?request_id=) to filter merged dumps down
// to one request.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/cli.h"
#include "net/client.h"
#include "obs/trace.h"

namespace {

namespace cli = aec::cli;
using aec::net::Client;
using aec::net::ClientConfig;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: aecc <ping|put|get|ls|stat|metrics|scrub|node> --port P "
      "[options]\n"
      "  common: --port P (required)  --host H (default 127.0.0.1)\n"
      "  put     --name NAME FILE     stream a file into the archive\n"
      "  get     --name NAME [-o OUT] stream it back (stdout by default)\n"
      "  ls                           list archived files\n"
      "  stat    [--metrics]          remote stat JSON\n"
      "  metrics                      metrics snapshot JSON\n"
      "  scrub                        repair + integrity scan; exits 1\n"
      "                               if a block stays unrecovered or the\n"
      "                               scan finds an inconsistent parity\n"
      "  node fail    --node K        take a cluster node down\n"
      "  node heal    --node K        bring it back\n"
      "  node rebuild --node K        replace + re-materialize it\n"
      "  trace <cmd> [--request-id N] re-run <cmd> with trace-id\n"
      "                               propagation on; dump spans as\n"
      "                               JSONL (filtered to N when given)\n");
  std::exit(2);
}

/// Options and positional arguments each command accepts (put's FILE,
/// node's subcommand, trace's command and its one positional).
const cli::Commands kCommands = {
    {"ping", {{"--port", "--host"}}},
    {"put", {{"--port", "--host", "--name"}, 1}},
    {"get", {{"--port", "--host", "--name", "--out"}}},
    {"ls", {{"--port", "--host"}}},
    {"stat", {{"--port", "--host", "--metrics"}}},
    {"metrics", {{"--port", "--host"}}},
    {"scrub", {{"--port", "--host"}}},
    {"node", {{"--port", "--host", "--node"}, 1}},
    {"trace", {{"--port", "--host", "--name", "--out", "--metrics", "--node",
                "--request-id"},
               2}},
};

int run_command(Client& client, const cli::Args& args) {
  if (args.command == "ping") {
    client.ping();
    std::printf("pong\n");
    return 0;
  }
  if (args.command == "put") {
    if (args.positional.size() != 1) {
      std::fprintf(stderr, "error: put needs exactly one FILE\n");
      usage();
    }
    const aec::net::PutResult result =
        client.put_file(cli::require(args, "--name", usage),
                        args.positional[0]);
    std::printf("archived '%s': %llu bytes in %llu block(s) from d%llu\n",
                cli::require(args, "--name", usage).c_str(),
                static_cast<unsigned long long>(result.bytes),
                static_cast<unsigned long long>(result.blocks),
                static_cast<unsigned long long>(result.first_block));
    return 0;
  }
  if (args.command == "get") {
    const std::string& name = cli::require(args, "--name", usage);
    const auto out_it = args.options.find("--out");
    std::uint64_t total = 0;
    if (out_it == args.options.end()) {
      total = client.get(name, [](aec::BytesView chunk) {
        cli::write_chunk(stdout, "stdout", chunk);
      });
      AEC_CHECK_MSG(std::fflush(stdout) == 0, "cannot write stdout");
      std::fprintf(stderr, "restored '%s' (%llu bytes)\n", name.c_str(),
                   static_cast<unsigned long long>(total));
    } else {
      total = client.get_to_file(name, out_it->second);
      std::printf("restored '%s' (%llu bytes) to %s\n", name.c_str(),
                  static_cast<unsigned long long>(total),
                  out_it->second.c_str());
    }
    return 0;
  }
  if (args.command == "ls") {
    for (const aec::net::RemoteFileEntry& entry : client.list())
      std::printf("%-40s %12llu bytes  d%llu+\n", entry.name.c_str(),
                  static_cast<unsigned long long>(entry.bytes),
                  static_cast<unsigned long long>(entry.first_block));
    return 0;
  }
  if (args.command == "stat") {
    std::printf("%s\n",
                client.stat_json(args.options.count("--metrics") != 0)
                    .c_str());
    return 0;
  }
  if (args.command == "metrics") {
    std::printf("%s\n", client.metrics_json().c_str());
    return 0;
  }
  if (args.command == "scrub") {
    const aec::net::ScrubResult result = client.scrub();
    std::printf("repaired    : %llu data + %llu parity blocks in %u "
                "round(s)\n",
                static_cast<unsigned long long>(result.data_repaired),
                static_cast<unsigned long long>(result.parity_repaired),
                result.rounds);
    std::printf("unrecovered : %llu\n",
                static_cast<unsigned long long>(result.unrecovered));
    std::printf("integrity   : %llu inconsistent parities\n",
                static_cast<unsigned long long>(
                    result.inconsistent_parities));
    // The reply carries no suspect count; a suspect block always comes
    // with an inconsistent parity.
    return cli::scrub_exit_status(result.unrecovered,
                                  result.inconsistent_parities, 0);
  }
  if (args.command == "node") {
    if (args.positional.size() != 1) {
      std::fprintf(stderr, "error: node wants exactly one subcommand "
                           "(fail | heal | rebuild)\n");
      usage();
    }
    const std::string& sub = args.positional[0];
    const auto node = static_cast<std::uint32_t>(
        cli::parse_unsigned("--node", cli::require(args, "--node", usage), 0,
                            9999, usage));
    if (sub == "fail") {
      client.node_fail(node);
      std::printf("node %u is down\n", node);
      return 0;
    }
    if (sub == "heal") {
      client.node_heal(node);
      std::printf("node %u is back up\n", node);
      return 0;
    }
    if (sub == "rebuild") {
      const aec::net::RebuildResult result = client.node_rebuild(node);
      std::printf("rebuilt node %u: %llu block(s) re-materialized in %u "
                  "round(s)\n",
                  node,
                  static_cast<unsigned long long>(result.blocks_repaired),
                  result.rounds);
      if (result.unrecovered > 0)
        std::printf("unrecovered : %llu block(s)\n",
                    static_cast<unsigned long long>(result.unrecovered));
      return result.unrecovered == 0 ? 0 : 1;
    }
    std::fprintf(stderr, "error: unknown node subcommand '%s'\n",
                 sub.c_str());
    usage();
  }
  usage();
}

int run(cli::Args args) {
  ClientConfig config;
  config.port = static_cast<std::uint16_t>(cli::parse_unsigned(
      "--port", cli::require(args, "--port", usage), 1, 65535, usage));
  const auto host_it = args.options.find("--host");
  if (host_it != args.options.end()) config.host = host_it->second;

  const bool tracing = args.command == "trace";
  std::uint64_t request_id_filter = 0;
  if (tracing) {
    if (args.positional.empty()) {
      std::fprintf(stderr,
                   "error: trace wants a command to run (ping | put | get "
                   "| ls | stat | metrics | scrub | node)\n");
      usage();
    }
    args.command = args.positional.front();
    args.positional.erase(args.positional.begin());
    if (const auto it = args.options.find("--request-id");
        it != args.options.end())
      request_id_filter = cli::parse_unsigned(
          "--request-id", it->second, 0,
          std::numeric_limits<std::uint64_t>::max(), usage);
    config.trace = true;
    aec::obs::TraceRing::global().enable();
  }

  Client client(config);
  const int rc = run_command(client, args);

  if (tracing) {
    aec::obs::TraceRing::global().disable();
    // The id also selects this request in the daemon's GET /trace dump.
    std::fprintf(stderr, "trace: id %llu\n",
                 static_cast<unsigned long long>(client.last_trace_id()));
    aec::obs::TraceRing::global().dump_jsonl(stdout, request_id_filter);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(cli::parse(argc, argv, kCommands, {"--metrics"}, usage));
  } catch (const aec::net::RemoteError& e) {
    std::fprintf(stderr, "remote error: %s\n", e.what());
    return 1;
  } catch (const aec::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.message());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
