// End-to-end archive benchmark: one workload per process, served by an
// in-process aecd net::Server over a tools::Archive and driven over
// loopback TCP by net::Client connections, so every request crosses the
// production path (net → executor → tools → api → pipeline → store →
// cluster → kernels). README.md in this directory describes the
// workloads, the metrics and which layer each metric belongs to.
//
//   aec_perfbench --workload ingest|serve|node_loss --seed N --seconds S
//                 --trace 0|1 --workdir DIR
//
// The op sequence is a function of (workload, seed, seconds) only: two
// runs of one seed do the same operations against archives of the same
// size, whatever the speed of the code under test (serve's closed-loop
// readers excepted: they read for as long as the writer's schedule runs).
//
// Output: a human report, one {"env":…} stamp line and, last, the result
// line {"correct":…,"attempted":…,"failed":…,"metrics":{…}} — the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/xor_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/concurrent_block_store.h"
#include "timed_store.h"
#include "tools/archive.h"

namespace perfbench {
namespace {

using namespace aec;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// --- the fixed system under test -------------------------------------------
// Each cluster node is an in-memory striped-lock store ("cmem", the
// library's pipeline::ConcurrentBlockStore), not sharded(N) files: the
// benchmark may write only inside its checkout, and on the disk-backed
// checkout it was built on, identical file-per-block ingest runs swung
// between 17.6 and 43.5 MB/s (README.md, "Why not files").
constexpr const char* kCodec = "AE(3,2,5)";
constexpr std::uint64_t kAlpha = 3;  // parities written per data block
constexpr std::size_t kBlock = 4096;
constexpr std::size_t kThreads = 2;
constexpr std::uint32_t kNodes = 4;
constexpr const char* kStore = "cluster(4,strand,cmem)";
constexpr const char* kTracedStore = "cluster(4,strand,timed(cmem))";

// --- workload sizing --------------------------------------------------------
// --seconds becomes fixed op counts, never a time limit: a faster commit
// does the same operations against archives of the same size.
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kCorpusMiB = 128.0;
constexpr double kIngestMiBPerSecond = 240.0;
constexpr double kIngestRoundMiB = 128.0;
// About a quarter of this system's ingest rate, so the writer competes
// with the readers for the one archive executor.
constexpr double kServePutBytesPerSecond = 50e6;
// serve runs in windows of the writer's schedule; every thread stops at
// a window's end, and every kServeWindowsPerRound windows the archive is
// rebuilt (corpus included), which bounds the in-memory archive.
constexpr double kServeWindowS = 0.5;
constexpr std::size_t kServeWindowsPerRound = 4;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kChunk = 1u << 20;
constexpr int kSetupRuns = 5;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

Clock::duration to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Machine-wide CPU time the hypervisor stole from this VM, as a share
/// of the time the CPUs were busy or stolen (user … steal in /proc/stat;
/// 0 where the counters are unavailable). On a shared VM, stolen time
/// stretches every wall-clock figure of the run.
class StealMeter {
 public:
  StealMeter() { read(steal_, busy_); }
  /// Share since construction or the previous call.
  double lap() {
    std::uint64_t steal = 0, busy = 0;
    read(steal, busy);
    const double share = safe_div(static_cast<double>(steal - steal_),
                                  static_cast<double>(busy - busy_));
    steal_ = steal;
    busy_ = busy;
    return share;
  }

 private:
  static void read(std::uint64_t& steal, std::uint64_t& busy) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      steal = v[7];
      busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];  // not idle/iowait
    }
    std::fclose(f);
  }
  std::uint64_t steal_ = 0, busy_ = 0;
};

/// The share of a stretch of wall time the VM's CPUs actually ran:
/// timings are scaled by it, so time the hypervisor stole is not charged
/// to the program.
double ran_share(double steal) { return 1.0 - std::clamp(steal, 0.0, 0.9); }

/// How fast the host runs a fixed task of the benchmark's own (a 32 MiB
/// copy for memory bandwidth, a dependent integer loop for core speed),
/// as nominal seconds over measured seconds. On a shared VM, neighbours
/// slow memory and cores without any steal: within minutes, at a steal
/// share of 0, the copy rate of a 256 MiB memcpy moved between 5.7 and
/// 9.1 GB/s and serve's GET rate with it between 456 and 1026 MB/s.
/// Passes probe only where no request is in flight, so the code under
/// test never shares the machine with the probe.
class HostProbe {
 public:
  HostProbe() : src_(kBytes, 0x5a), dst_(kBytes, 0xa5) {}

  /// Best of two tries, so an interrupt does not read as a slow host.
  double speed() {
    double best = 1e9;
    for (int k = 0; k < 2; ++k) {
      const auto start = Clock::now();
      std::memcpy(dst_.data(), src_.data(), kBytes);
      std::uint64_t x = dst_[static_cast<std::size_t>(k)] + 1u;
      for (int i = 0; i < kSpins; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink_ = sink_ + x;
      best = std::min(best, secs(Clock::now() - start));
    }
    return kNominalS / best;
  }

 private:
  static constexpr std::size_t kBytes = 32u << 20;
  static constexpr int kSpins = 4'000'000;
  // The task's time on the box the benchmark was built on, quiet.
  static constexpr double kNominalS = 0.0125;
  Bytes src_, dst_;
  volatile std::uint64_t sink_ = 0;
};

/// The speed the machine ran a stretch of work at, relative to the
/// nominal box: the share of CPU time the VM was not stolen from, times
/// the host probe's speed right after (1 where there is no probe).
/// Timings are multiplied by it, rates divided.
double speed_lap(StealMeter& meter, HostProbe* probe) {
  const double ran = ran_share(meter.lap());
  return probe != nullptr ? ran * probe->speed() : ran;
}

// --- seeded content ---------------------------------------------------------

/// Every object is a cyclic slice of one seeded random pool, starting at
/// an object-specific offset, so generating or checking any byte range
/// is a memcpy/memcmp against the pool and the load generator stays
/// cheap next to the server it drives.
class Content {
 public:
  explicit Content(std::uint64_t seed)
      : pool_(Rng(seed ^ 0x5eedc0de5eedc0deULL).random_block(kPoolBytes)) {}

  void fill(std::uint64_t offset, std::uint64_t pos, std::uint8_t* out,
            std::size_t n) const {
    std::uint64_t at = (offset + pos) % kPoolBytes;
    while (n > 0) {
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(n, kPoolBytes - at));
      std::memcpy(out, pool_.data() + at, take);
      out += take;
      n -= take;
      at = 0;
    }
  }

  bool matches(std::uint64_t offset, std::uint64_t pos, BytesView got) const {
    std::uint64_t at = (offset + pos) % kPoolBytes;
    const std::uint8_t* p = got.data();
    std::size_t n = got.size();
    while (n > 0) {
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(n, kPoolBytes - at));
      if (std::memcmp(p, pool_.data() + at, take) != 0) return false;
      p += take;
      n -= take;
      at = 0;
    }
    return true;
  }

 private:
  // Not a multiple of the block size, so block contents do not repeat
  // with the pool period.
  static constexpr std::uint64_t kPoolBytes = (8u << 20) + 4099;
  Bytes pool_;
};

struct Object {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t offset = 0;  // into the content pool

  std::uint64_t blocks() const {
    return std::max<std::uint64_t>(1, (bytes + kBlock - 1) / kBlock);
  }
};

// --- plans ------------------------------------------------------------------

enum class Workload { kIngest, kServe, kNodeLoss };

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kIngest: return "ingest";
    case Workload::kServe: return "serve";
    case Workload::kNodeLoss: return "node_loss";
  }
  return "?";
}

/// The seeded op sequence of one workload.
struct Plan {
  Workload workload = Workload::kIngest;
  std::uint64_t seed = 0;
  std::vector<Object> corpus;  // ascending size, ingested during set-up
  std::vector<std::uint32_t> corpus_order;  // seeded ingest order
  std::vector<Object> warmup;  // ingest: untimed PUTs during set-up
  std::vector<Object> puts;    // timed PUTs
  /// End index in `puts` of each segment (ingest: a round; serve: a
  /// window of the writer's schedule). Every `segments_per_round`
  /// segments the archive is rebuilt from scratch.
  std::vector<std::size_t> segment_ends;
  std::size_t segments_per_round = 1;
  double put_rate = 0.0;       // serve: open-loop bytes/s
  std::uint32_t cycles = 0;    // node_loss: fail → read all → rebuild
  std::vector<double> zipf_cdf;         // serve: over popularity ranks
  std::vector<std::uint32_t> by_rank;   // rank → corpus index

  std::uint64_t corpus_bytes() const {
    std::uint64_t sum = 0;
    for (const Object& o : corpus) sum += o.bytes;
    return sum;
  }
  std::uint64_t corpus_blocks() const {
    std::uint64_t sum = 0;
    for (const Object& o : corpus) sum += o.blocks();
    return sum;
  }
};

void shuffle(std::vector<std::uint32_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform(i)]);
}

/// About `total` bytes of objects with log-uniform sizes in [lo, hi].
/// Sizes are the distribution's quantiles rather than random draws, so
/// every seed gets the same size mix and seeds differ only in content,
/// names and order — the spread between seeds is then the spread of the
/// system, not of the sample. Returned in stratum order (ascending size).
std::vector<Object> draw_objects(Rng& rng, const std::string& prefix,
                                 double total, double lo, double hi) {
  const double mean = (hi - lo) / std::log(hi / lo);
  const auto n = static_cast<std::size_t>(std::max(1.0, std::ceil(total / mean)));
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order, rng);
  std::vector<Object> out(n);
  const double a = std::log(lo), b = std::log(hi);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].name = prefix + std::to_string(order[i]);
    out[i].bytes = static_cast<std::uint64_t>(
        std::exp(a + (b - a) * (static_cast<double>(i) + 0.5) /
                         static_cast<double>(n)));
    out[i].offset = rng.next_u64();
  }
  return out;
}

/// End indices of consecutive runs of `objects` of about `target` bytes.
std::vector<std::size_t> split_by_bytes(const std::vector<Object>& objects,
                                        double target) {
  std::vector<std::size_t> ends;
  double bytes = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    bytes += static_cast<double>(objects[i].bytes);
    if (bytes >= target || i + 1 == objects.size()) {
      ends.push_back(i + 1);
      bytes = 0.0;
    }
  }
  return ends;
}

/// `objects` in a seeded order (the order they are written in).
std::vector<Object> seeded_order(std::vector<Object> objects, Rng& rng) {
  std::vector<std::uint32_t> order(objects.size());
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order, rng);
  std::vector<Object> out;
  out.reserve(objects.size());
  for (const std::uint32_t i : order) out.push_back(std::move(objects[i]));
  return out;
}

Plan make_plan(Workload w, std::uint64_t seed, double seconds) {
  Plan p;
  p.workload = w;
  p.seed = seed;
  Rng rng(seed);
  constexpr double KiB = 1024.0;
  switch (w) {
    case Workload::kIngest:
      // 256 KiB – 8 MiB straddles the 2 MiB ingest window at 2 threads:
      // both the window-flush and the close-flush path run.
      p.warmup = seeded_order(
          draw_objects(rng, "warm", kIngestRoundMiB * kMiB, 256 * KiB,
                       8 * kMiB),
          rng);
      p.puts = seeded_order(
          draw_objects(rng, "obj", seconds * kIngestMiBPerSecond * kMiB,
                       256 * KiB, 8 * kMiB),
          rng);
      // Rounds of about kIngestRoundMiB, each into a fresh archive, so
      // the in-memory nodes never hold more than one round.
      p.segment_ends = split_by_bytes(p.puts, kIngestRoundMiB * kMiB);
      break;
    case Workload::kServe:
    case Workload::kNodeLoss:
      p.corpus = draw_objects(rng, "c", kCorpusMiB * kMiB, 64 * KiB, 4 * kMiB);
      p.corpus_order.resize(p.corpus.size());
      std::iota(p.corpus_order.begin(), p.corpus_order.end(), 0u);
      shuffle(p.corpus_order, rng);
      break;
  }
  if (w == Workload::kServe) {
    p.put_rate = kServePutBytesPerSecond;
    p.puts = seeded_order(
        draw_objects(rng, "w", seconds * p.put_rate, 64 * KiB, 4 * kMiB),
        rng);
    p.segment_ends = split_by_bytes(p.puts, p.put_rate * kServeWindowS);
    p.segments_per_round = kServeWindowsPerRound;
    const std::size_t n = p.corpus.size();
    double sum = 0.0;
    for (std::size_t r = 1; r <= n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      p.zipf_cdf.push_back(sum);
    }
    for (double& c : p.zipf_cdf) c /= sum;
    // Which size stratum is how popular is fixed across seeds, so every
    // seed reads the same size mix.
    p.by_rank.resize(n);
    std::iota(p.by_rank.begin(), p.by_rank.end(), 0u);
    Rng fixed(0x2545F4914F6CDD1DULL);
    shuffle(p.by_rank, fixed);
  }
  if (w == Workload::kNodeLoss) {
    // At least one cycle per node, rotating the failed node; one
    // rotation takes about 3 s at the nominal rates.
    const auto rounds = static_cast<std::uint32_t>(
        std::max(1.0, std::round(seconds / 3.0)));
    p.cycles = kNodes * rounds;
  }
  return p;
}

/// The i-th corpus object of cycle `cycle`'s seeded read order.
std::vector<std::uint32_t> cycle_order(const Plan& p, std::uint32_t cycle) {
  std::vector<std::uint32_t> order(p.corpus.size());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(p.seed * 0x9E3779B97F4A7C15ULL + cycle + 1);
  shuffle(order, rng);
  return order;
}

// --- failure accounting -------------------------------------------------------

/// Ops attempted and failed. A remote error, a kBusy refusal, a
/// transport error and a byte mismatch each count as a failure.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> errors;  // first few, for the report

  void fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard lock(mu);
    if (errors.size() < 8) errors.push_back(what);
  }
  /// A self-check that is not an op of its own still fails the run.
  void check(bool ok, const std::string& what) {
    attempted.fetch_add(1);
    if (!ok) fail("check failed: " + what);
  }
};

// --- op records ---------------------------------------------------------------

enum class OpKind : std::uint8_t { kPut, kGet, kFail, kRebuild };

struct OpRecord {
  OpKind kind = OpKind::kGet;
  const Object* object = nullptr;  // put/get
  std::uint32_t node = 0;          // fail/rebuild
  double start_s = 0.0;    // when due (open loop) or sent, from pass start
  double latency_s = 0.0;  // from start_s to completion
  double service_s = 0.0;  // from the actual send to completion
  std::uint64_t trace_id = 0;
  std::uint64_t repaired_blocks = 0;  // rebuild
  std::uint32_t round = 0;            // ingest round (archive generation)
  std::uint32_t segment = 0;          // index into the phase's rates
  bool ok = false;
};

// --- the system under test ------------------------------------------------------

struct Sut {
  fs::path root;
  std::unique_ptr<tools::Archive> archive;
  std::unique_ptr<net::Server> server;
  std::thread server_thread;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::unique_ptr<net::Client>> retired;

  Sut() = default;
  Sut(const Sut&) = delete;
  Sut& operator=(const Sut&) = delete;
  ~Sut() { stop_server(); }

  std::uint16_t port() const { return server->port(); }

  void start_server() {
    net::ServerConfig config;
    config.idle_timeout_ms = 0;
    server = std::make_unique<net::Server>(archive.get(), config);
    server_thread = std::thread([s = server.get()] { s->run(); });
  }
  void stop_server() {
    // Retired, not destroyed: a client's trace ids derive from its
    // address, and a new client at a reused address would repeat them.
    for (auto& c : clients) retired.push_back(std::move(c));
    clients.clear();
    if (!server) return;
    server->shutdown();
    server_thread.join();
    server.reset();
  }
  /// Stops the server, drops the archive and deletes its directory.
  void discard() {
    stop_server();
    archive.reset();
    std::error_code ec;
    fs::remove_all(root, ec);
  }
};

std::unique_ptr<net::Client> connect(std::uint16_t port, bool trace) {
  net::ClientConfig config;
  config.port = port;
  config.timeout_ms = 120'000;
  config.trace = trace;
  return std::make_unique<net::Client>(config);
}

/// Streams `o` up through `client`; true when acknowledged in full.
bool put_object(net::Client& client, const Object& o, const Content& content) {
  std::uint64_t pos = 0;
  const net::PutResult r = client.put_stream(
      o.name, [&](std::uint8_t* buf, std::size_t cap) {
        const auto n =
            static_cast<std::size_t>(std::min<std::uint64_t>(cap, o.bytes - pos));
        content.fill(o.offset, pos, buf, n);
        pos += n;
        return n;
      });
  return r.bytes == o.bytes && r.blocks == o.blocks();
}

/// Reads `o` back through `client`, byte-comparing every chunk.
bool get_object(net::Client& client, const Object& o, const Content& content) {
  std::uint64_t pos = 0;
  bool same = true;
  const std::uint64_t total = client.get(o.name, [&](BytesView chunk) {
    if (same && (pos + chunk.size() > o.bytes ||
                 !content.matches(o.offset, pos, chunk)))
      same = false;
    pos += chunk.size();
  });
  return same && total == o.bytes;
}

/// Runs one client op, classifying any failure; a failed streaming op
/// leaves the connection's framing unspecified, so it is replaced.
template <typename Fn>
bool guarded(std::unique_ptr<net::Client>& client, std::uint16_t port,
             Tally& tally, const std::string& what, Fn&& fn) {
  tally.attempted.fetch_add(1);
  std::string why;
  try {
    if (fn(*client)) return true;
    why = "byte mismatch";
  } catch (const net::RemoteError& e) {
    why = e.code() == net::ErrorCode::kBusy ? "refused (busy): "
                                            : "remote error: ";
    why += e.what();
  } catch (const std::exception& e) {
    why = std::string("transport error: ") + e.what();
  }
  tally.fail(what + ": " + why);
  try {
    client = connect(port, client->trace());
  } catch (const std::exception&) {
    // The next op on this connection fails and is counted.
  }
  return false;
}

/// Streams `o` into the archive directly (set-up corpus and the direct
/// pass). Returns {write seconds, close seconds}.
std::pair<double, double> put_direct(tools::Archive& archive, const Object& o,
                                     const Content& content, Bytes& buf) {
  tools::FileWriter writer = archive.begin_file(o.name);
  double write_s = 0.0;
  for (std::uint64_t pos = 0; pos < o.bytes;) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, o.bytes - pos));
    content.fill(o.offset, pos, buf.data(), n);
    const auto t = Clock::now();
    writer.write(BytesView(buf.data(), n));
    write_s += secs(Clock::now() - t);
    pos += n;
  }
  const auto t = Clock::now();
  const tools::FileEntry& entry = writer.close();
  const double close_s = secs(Clock::now() - t);
  AEC_CHECK_MSG(entry.bytes == o.bytes, "short direct put of " << o.name);
  return {write_s, close_s};
}

bool get_direct(tools::Archive& archive, const Object& o,
                const Content& content) {
  tools::FileReader reader = archive.open_reader(o.name);
  std::uint64_t pos = 0;
  for (;;) {
    const std::optional<BytesView> chunk = reader.next_chunk();
    if (!chunk) return false;
    if (chunk->empty()) break;
    if (pos + chunk->size() > o.bytes ||
        !content.matches(o.offset, pos, *chunk))
      return false;
    pos += chunk->size();
  }
  return pos == o.bytes;
}

std::size_t connections_for(Workload w) {
  return w == Workload::kIngest ? 1 : kReaders + 1;
}

/// Span events of a traced pass. The ring holds 16384 events, so passes
/// drain it wherever no request is in flight (after every ingest phase,
/// serve window and node_loss phase); re-enabling restarts the ring's
/// clock, which is harmless because no op straddles a drain. Any event
/// the ring overwrote before a drain fails the run.
struct TraceLog {
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;

  void drain() {
    obs::TraceRing& ring = obs::TraceRing::global();
    const std::vector<obs::TraceEvent> ev = ring.events();
    events.insert(events.end(), ev.begin(), ev.end());
    dropped += ring.dropped();
    ring.enable();
  }
};

/// How one pass builds its system under test.
struct Rig {
  const Plan& plan;
  const Content& content;
  fs::path root;
  std::string store_spec = kStore;
  bool with_server = true;  // false: the archive alone (direct pass)
  bool trace_clients = false;
  TraceLog* trace = nullptr;  // traced pass only
  HostProbe* probe = nullptr;  // untraced run only

  /// See speed_lap.
  double speed(StealMeter& meter) const { return speed_lap(meter, probe); }

  /// Called by passes at points where no request is in flight.
  void quiesce() const {
    if (trace != nullptr) trace->drain();
  }

  /// Archive, corpus, server, connections and — when `warm` — the
  /// warm-up ops (a round of ingest PUTs, two corpus reads per reader).
  /// Returns the set-up seconds, compensated for the machine's speed.
  double build(Sut& sut, Tally& tally, bool warm = true) const {
    std::error_code ec;
    fs::remove_all(root, ec);
    StealMeter meter;
    const auto start = Clock::now();
    build_steps(sut, tally, warm);
    const double s = secs(Clock::now() - start);
    return s * speed(meter);
  }

  void build_steps(Sut& sut, Tally& tally, bool warm) const {
    make(sut);
    if (!warm) return;
    if (!plan.warmup.empty()) {
      // A round's worth of PUTs into an archive that is then dropped: the
      // pass starts on a fresh archive, like every later ingest round,
      // in a heap that has already held a round.
      Bytes buf(kChunk);
      for (const Object& o : plan.warmup) {
        if (!with_server)
          put_direct(*sut.archive, o, content, buf);
        else
          guarded(sut.clients[0], sut.port(), tally, "warm-up put " + o.name,
                  [&](net::Client& c) { return put_object(c, o, content); });
      }
      sut.discard();
      make(sut);
    }
    if (with_server && !plan.corpus.empty())
      for (std::size_t r = 0; r < kReaders; ++r)
        for (std::size_t i = 0; i < 2; ++i) {
          const Object& o = plan.corpus[(2 * r + i) % plan.corpus.size()];
          guarded(sut.clients[r], sut.port(), tally, "warm-up get " + o.name,
                  [&](net::Client& c) { return get_object(c, o, content); });
        }
  }

  /// Archive with the corpus and, unless this is the direct pass, the
  /// server and its connections.
  void make(Sut& sut) const {
    sut.root = root;
    sut.archive = tools::Archive::create(root, kCodec, kBlock,
                                         Engine::with_threads(kThreads),
                                         store_spec);
    Bytes buf(kChunk);
    for (const std::uint32_t i : plan.corpus_order)
      put_direct(*sut.archive, plan.corpus[i], content, buf);
    if (!with_server) return;
    sut.start_server();
    for (std::size_t c = 0; c < connections_for(plan.workload); ++c)
      sut.clients.push_back(connect(sut.port(), trace_clients));
  }

  /// Replaces `sut` with a fresh, unwarmed system (the next round).
  void rebuild(Sut& sut, Tally& tally) const {
    sut.discard();
    build(sut, tally, /*warm=*/false);
  }
};

/// One set-up in a forked child (no threads exist in the parent yet), so
/// several set-ups can be timed without their archives' memory showing
/// in this process's peak RSS. Returns seconds, or a negative value on
/// failure.
double setup_in_child(const Rig& parent_rig) {
  int fds[2];
  AEC_CHECK_MSG(::pipe(fds) == 0, "pipe: " << std::strerror(errno));
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  AEC_CHECK_MSG(pid >= 0, "fork: " << std::strerror(errno));
  if (pid == 0) {
    ::close(fds[0]);
    double s = -1.0;
    try {
      // A probe of the child's own: the parent's buffers are shared
      // copy-on-write, and writing them would time page faults.
      HostProbe probe;
      Rig rig = parent_rig;
      rig.probe = &probe;
      Tally tally;
      Sut sut;
      s = rig.build(sut, tally);
      if (tally.failed.load() > 0) s = -1.0;
      sut.discard();
    } catch (const std::exception&) {
      s = -1.0;
    }
    const ssize_t n = ::write(fds[1], &s, sizeof s);
    ::_exit(n == sizeof s && s >= 0.0 ? 0 : 1);
  }
  ::close(fds[1]);
  double s = -1.0;
  const ssize_t n = ::read(fds[0], &s, sizeof s);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != sizeof s || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return -1.0;
  return s;
}

// --- passes -------------------------------------------------------------------

struct Pass {
  std::vector<OpRecord> ops;
  double wall_s = 0.0;       // headline phase
  double side_wall_s = 0.0;  // secondary phase
  /// Bytes/s of each segment of the headline and secondary phases
  /// (ingest rounds, node_loss cycles, serve time windows). Throughput
  /// is reported as their median, so a few seconds of a noisy neighbour
  /// on a shared machine move one segment, not the result.
  std::vector<double> head_rates, side_rates;
  /// The machine's speed over each segment (speed_lap), parallel to the
  /// rates.
  std::vector<double> head_speed, side_speed;
  std::vector<double> generator_late_s;  // serve: send minus due time
  std::uint32_t rebuilds = 0;  // archives rebuilt inside the pass
  /// node_loss: per rebuild, bytes read from each node during it.
  std::vector<std::vector<std::uint64_t>> rebuild_node_reads;
};

std::vector<std::uint64_t> node_reads(const tools::Archive& archive) {
  std::vector<std::uint64_t> out;
  for (const cluster::NodeTraffic& t : archive.cluster()->traffic())
    out.push_back(t.bytes_read);
  return out;
}

/// Pings through every connection: the executor is FIFO, so once the
/// replies are back every earlier request has fully finished, latency
/// histogram included.
void settle(Sut& sut, Tally& tally) {
  guarded(sut.clients[0], sut.port(), tally, "settle ping",
          [](net::Client& c) {
            c.ping();
            return true;
          });
}

/// One connection, closed loop. Each round PUTs its objects (headline)
/// and then reads every one of them back byte-compared (secondary); a
/// later round starts on a fresh archive, outside the timed phases.
Pass run_ingest(Sut& sut, const Rig& rig, Tally& tally) {
  const Plan& plan = rig.plan;
  Pass pass;
  const auto t0 = Clock::now();
  std::size_t begin = 0;
  for (std::uint32_t round = 0; round < plan.segment_ends.size(); ++round) {
    if (round > 0) {
      rig.rebuild(sut, tally);
      ++pass.rebuilds;
    }
    const std::size_t end = plan.segment_ends[round];
    auto& client = sut.clients[0];
    const auto phase = [&](OpKind kind, double& wall_s,
                           std::vector<double>& rates,
                           std::vector<double>& speed) {
      StealMeter meter;
      const auto phase_start = Clock::now();
      double bytes = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const Object& o = plan.puts[i];
        OpRecord rec{kind, &o};
        rec.round = round;
        rec.segment = round;
        const auto start = Clock::now();
        rec.start_s = secs(start - t0);
        rec.ok = guarded(client, sut.port(), tally,
                         (kind == OpKind::kPut ? "put " : "read-back ") + o.name,
                         [&](net::Client& c) {
                           return kind == OpKind::kPut
                                      ? put_object(c, o, rig.content)
                                      : get_object(c, o, rig.content);
                         });
        rec.latency_s = rec.service_s = secs(Clock::now() - start);
        rec.trace_id = client->last_trace_id();
        if (rec.ok) bytes += static_cast<double>(o.bytes);
        pass.ops.push_back(rec);
      }
      const double phase_s = secs(Clock::now() - phase_start);
      wall_s += phase_s;
      rates.push_back(safe_div(bytes, phase_s));
      speed.push_back(rig.speed(meter));
      rig.quiesce();
    };
    phase(OpKind::kPut, pass.wall_s, pass.head_rates, pass.head_speed);
    phase(OpKind::kGet, pass.side_wall_s, pass.side_rates, pass.side_speed);
    begin = end;
  }
  return pass;
}

/// Two closed-loop Zipf readers beside an open-loop writer, in windows
/// of the writer's schedule. Every thread stops at a window's end, so a
/// window boundary is a point with no request in flight; every
/// segments_per_round windows the archive is rebuilt, outside the timed
/// windows, so the writer's data never outgrows one round.
Pass run_serve(Sut& sut, const Rig& rig, Tally& tally) {
  const Plan& plan = rig.plan;
  const Content& content = rig.content;
  Pass pass;
  std::vector<Rng> reader_rng;
  for (std::size_t r = 0; r < kReaders; ++r)
    reader_rng.emplace_back(plan.seed * 0xD1B54A32D192ED03ULL + r + 1);
  const auto t0 = Clock::now();
  std::size_t begin = 0;
  for (std::uint32_t w = 0; w < plan.segment_ends.size(); ++w) {
    if (w > 0 && w % plan.segments_per_round == 0) {
      rig.rebuild(sut, tally);
      ++pass.rebuilds;
    }
    const auto round = static_cast<std::uint32_t>(w / plan.segments_per_round);
    const std::size_t end = plan.segment_ends[w];
    std::atomic<bool> writer_done{false};
    std::vector<std::vector<OpRecord>> per_thread(kReaders + 1);
    std::vector<double> late_s;
    StealMeter meter;
    const auto start = Clock::now();
    const double offset_s = secs(start - t0);
    std::vector<std::thread> threads;
    // Open-loop writer: PUT k is due when the constant byte rate reaches
    // it; latency counts from the due time, so a stall is charged to
    // every PUT queued behind it. The window lasts at least its schedule.
    threads.emplace_back([&] {
      auto& client = sut.clients[kReaders];
      double due_s = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const Object& o = plan.puts[i];
        const auto due = start + to_duration(due_s);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        late_s.push_back(std::max(0.0, secs(sent - due)));
        OpRecord rec{OpKind::kPut, &o};
        rec.round = round;
        rec.segment = w;
        rec.start_s = offset_s + due_s;
        rec.ok = guarded(client, sut.port(), tally, "put " + o.name,
                         [&](net::Client& c) { return put_object(c, o, content); });
        const auto done = Clock::now();
        rec.latency_s = secs(done - due);
        rec.service_s = secs(done - sent);
        rec.trace_id = client->last_trace_id();
        per_thread[kReaders].push_back(rec);
        due_s += static_cast<double>(o.bytes) / plan.put_rate;
      }
      std::this_thread::sleep_until(start + to_duration(due_s));
      writer_done = true;
    });
    // Closed-loop readers with Zipf popularity, until the writer is done.
    for (std::size_t r = 0; r < kReaders; ++r)
      threads.emplace_back([&, r] {
        auto& client = sut.clients[r];
        Rng& rng = reader_rng[r];
        while (!writer_done.load()) {
          const double u = rng.uniform_double();
          const auto rank = static_cast<std::size_t>(
              std::lower_bound(plan.zipf_cdf.begin(), plan.zipf_cdf.end(), u) -
              plan.zipf_cdf.begin());
          const Object& o =
              plan.corpus[plan.by_rank[std::min(rank, plan.corpus.size() - 1)]];
          OpRecord rec{OpKind::kGet, &o};
          rec.round = round;
          rec.segment = w;
          const auto sent = Clock::now();
          rec.start_s = secs(sent - t0);
          rec.ok = guarded(client, sut.port(), tally, "get " + o.name,
                           [&](net::Client& c) { return get_object(c, o, content); });
          rec.latency_s = rec.service_s = secs(Clock::now() - sent);
          rec.trace_id = client->last_trace_id();
          per_thread[r].push_back(rec);
        }
      });
    for (std::thread& t : threads) t.join();
    const double wall_s = secs(Clock::now() - start);
    pass.wall_s += wall_s;
    pass.head_speed.push_back(rig.speed(meter));
    double get_bytes = 0.0;
    for (auto& v : per_thread)
      for (const OpRecord& r : v) {
        if (r.ok && r.kind == OpKind::kGet)
          get_bytes += static_cast<double>(r.object->bytes);
        pass.ops.push_back(r);
      }
    pass.head_rates.push_back(safe_div(get_bytes, wall_s));
    pass.side_speed.push_back(pass.head_speed.back());
    pass.generator_late_s.insert(pass.generator_late_s.end(), late_s.begin(),
                                 late_s.end());
    rig.quiesce();
    begin = end;
  }
  return pass;
}

Pass run_node_loss(Sut& sut, const Rig& rig, Tally& tally) {
  const Plan& plan = rig.plan;
  const Content& content = rig.content;
  Pass pass;
  auto& control = sut.clients[kReaders];
  const auto t0 = Clock::now();
  for (std::uint32_t cycle = 0; cycle < plan.cycles; ++cycle) {
    const std::uint32_t node = cycle % kNodes;
    {
      OpRecord rec{OpKind::kFail, nullptr, node};
      const auto start = Clock::now();
      rec.start_s = secs(start - t0);
      rec.ok = guarded(control, sut.port(), tally,
                       "node_fail " + std::to_string(node),
                       [&](net::Client& c) {
                         c.node_fail(node);
                         return true;
                       });
      rec.latency_s = rec.service_s = secs(Clock::now() - start);
      rec.trace_id = control->last_trace_id();
      pass.ops.push_back(rec);
    }
    // Degraded reads: every corpus object once, in a seeded order shared
    // by both readers. Once is enough: repaired blocks are staged, and a
    // second read would no longer be degraded.
    const std::vector<std::uint32_t> order = cycle_order(plan, cycle);
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<OpRecord>> per_reader(kReaders);
    StealMeter meter;
    const auto read_start = Clock::now();
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r)
      readers.emplace_back([&, r] {
        auto& client = sut.clients[r];
        for (std::size_t i = next.fetch_add(1); i < order.size();
             i = next.fetch_add(1)) {
          const Object& o = plan.corpus[order[i]];
          OpRecord rec{OpKind::kGet, &o};
          rec.segment = cycle;
          const auto start = Clock::now();
          rec.start_s = secs(start - t0);
          rec.ok = guarded(client, sut.port(), tally, "degraded get " + o.name,
                           [&](net::Client& c) {
                             return get_object(c, o, content);
                           });
          rec.latency_s = rec.service_s = secs(Clock::now() - start);
          rec.trace_id = client->last_trace_id();
          per_reader[r].push_back(rec);
        }
      });
    for (std::thread& t : readers) t.join();
    const double read_s = secs(Clock::now() - read_start);
    pass.wall_s += read_s;
    double read_bytes = 0.0;
    for (auto& v : per_reader)
      for (const OpRecord& r : v) {
        if (r.ok) read_bytes += static_cast<double>(r.object->bytes);
        pass.ops.push_back(r);
      }
    pass.head_rates.push_back(safe_div(read_bytes, read_s));
    pass.head_speed.push_back(rig.speed(meter));
    rig.quiesce();

    // The executor is idle between requests, so the node counters can be
    // read directly around the rebuild.
    const std::vector<std::uint64_t> before = node_reads(*sut.archive);
    OpRecord rec{OpKind::kRebuild, nullptr, node};
    rec.segment = cycle;
    meter.lap();
    const auto start = Clock::now();
    rec.start_s = secs(start - t0);
    rec.ok = guarded(control, sut.port(), tally,
                     "node_rebuild " + std::to_string(node),
                     [&](net::Client& c) {
                       const net::RebuildResult r = c.node_rebuild(node);
                       rec.repaired_blocks = r.blocks_repaired;
                       return r.unrecovered == 0 && r.blocks_repaired > 0;
                     });
    rec.latency_s = rec.service_s = secs(Clock::now() - start);
    pass.side_wall_s += rec.latency_s;
    pass.side_rates.push_back(safe_div(
        static_cast<double>(rec.repaired_blocks * kBlock), rec.latency_s));
    pass.side_speed.push_back(rig.speed(meter));
    rec.trace_id = control->last_trace_id();
    pass.ops.push_back(rec);
    std::vector<std::uint64_t> delta = node_reads(*sut.archive);
    for (std::size_t k = 0; k < delta.size(); ++k) delta[k] -= before[k];
    pass.rebuild_node_reads.push_back(std::move(delta));
    rig.quiesce();
  }
  return pass;
}

Pass run_pass(Sut& sut, const Rig& rig, Tally& tally) {
  switch (rig.plan.workload) {
    case Workload::kIngest: return run_ingest(sut, rig, tally);
    case Workload::kServe: return run_serve(sut, rig, tally);
    case Workload::kNodeLoss: return run_node_loss(sut, rig, tally);
  }
  return {};
}

/// Replays a pass's ops, in start order, against the archive with no
/// server: the tools-layer cost of the same work. Times per op kind.
struct DirectTimes {
  double put_write_s = 0.0, put_close_s = 0.0, get_s = 0.0;
  double fail_s = 0.0, rebuild_s = 0.0;
  std::uint64_t puts = 0, gets = 0, rebuilt_blocks = 0;
  std::uint64_t put_bytes = 0, get_bytes = 0;

  double total_s() const {
    return put_write_s + put_close_s + get_s + fail_s + rebuild_s;
  }
};

DirectTimes replay_direct(Sut& direct, const Rig& rig, const Pass& pass,
                          Tally& tally) {
  std::vector<const OpRecord*> order;
  for (const OpRecord& r : pass.ops) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const OpRecord* a, const OpRecord* b) {
                     return a->start_s < b->start_s;
                   });
  const Content& content = rig.content;
  DirectTimes d;
  Bytes buf(kChunk);
  std::uint32_t round = 0;
  for (const OpRecord* r : order) {
    if (r->round != round) {
      rig.rebuild(direct, tally);
      round = r->round;
    }
    tools::Archive& archive = *direct.archive;
    tally.attempted.fetch_add(1);
    try {
      const auto start = Clock::now();
      switch (r->kind) {
        case OpKind::kPut: {
          const auto [w, c] = put_direct(archive, *r->object, content, buf);
          d.put_write_s += w;
          d.put_close_s += c;
          ++d.puts;
          d.put_bytes += r->object->bytes;
          break;
        }
        case OpKind::kGet:
          if (!get_direct(archive, *r->object, content))
            tally.fail("direct get " + r->object->name + ": byte mismatch");
          d.get_s += secs(Clock::now() - start);
          ++d.gets;
          d.get_bytes += r->object->bytes;
          break;
        case OpKind::kFail:
          archive.fail_node(r->node);
          d.fail_s += secs(Clock::now() - start);
          break;
        case OpKind::kRebuild: {
          const RepairReport report = archive.rebuild_node(r->node);
          d.rebuild_s += secs(Clock::now() - start);
          d.rebuilt_blocks += report.blocks_repaired_total();
          if (report.nodes_unrecovered + report.edges_unrecovered > 0)
            tally.fail("direct rebuild left unrecovered blocks");
          break;
        }
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("direct op: ") + e.what());
    }
  }
  return d;
}

// --- self-checks after a pass ---------------------------------------------------

/// Data blocks a pass encodes: its PUTs, and the corpus again for every
/// archive rebuilt inside it.
std::uint64_t encoded_blocks_of(const Plan& plan, const Pass& pass) {
  std::uint64_t blocks = pass.rebuilds * plan.corpus_blocks();
  for (const OpRecord& r : pass.ops)
    if (r.kind == OpKind::kPut && r.ok) blocks += r.object->blocks();
  return blocks;
}

/// Scrub through the server: 0 unrecovered, 0 inconsistent parities.
void check_scrub(Sut& sut, Tally& tally) {
  guarded(sut.clients[0], sut.port(), tally, "final scrub",
          [](net::Client& c) {
            const net::ScrubResult s = c.scrub();
            return s.unrecovered == 0 && s.inconsistent_parities == 0;
          });
}

/// Block bytes the cluster stores, over every node.
std::uint64_t stored_bytes(const tools::Archive& archive) {
  std::uint64_t blocks = 0;
  for (std::uint32_t k = 0; k < kNodes; ++k)
    blocks += archive.cluster()->node_blocks(k);
  return blocks * kBlock;
}

void register_store_families() {
  StoreRegistry::instance().register_family(
      "cmem", [](const StoreSpec& spec, const fs::path&) {
        AEC_CHECK_MSG(spec.args.empty(), "cmem store takes no arguments");
        return std::unique_ptr<BlockStore>(
            std::make_unique<pipeline::ConcurrentBlockStore>());
      });
  TimedStore::register_family();
}

// --- metric helpers -------------------------------------------------------------

/// One phase's segments, compensated for the machine's speed over each
/// (speed_lap): only the faster half (speed at or above the median)
/// counts, so a neighbour that takes the CPUs or the memory for part of
/// a run moves fewer of the numbers.
struct Segments {
  std::vector<double> speed;
  std::vector<bool> keep;

  explicit Segments(std::vector<double> s) : speed(std::move(s)) {
    const double cut = median(speed);
    for (const double v : speed) keep.push_back(v >= cut);
  }
  double speed_of(std::size_t i) const {
    return i < speed.size() ? speed[i] : 1.0;
  }
  bool kept(std::size_t i) const { return i >= keep.size() || keep[i]; }

  /// Median compensated rate over the kept segments.
  double rate(const std::vector<double>& rates) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < rates.size(); ++i)
      if (kept(i)) out.push_back(rates[i] / speed_of(i));
    return median(out);
  }
  /// Bytes over compensated service time of the successful `k` ops in
  /// kept segments: serve's PUT rate, which moves with the cost of a PUT
  /// rather than with the schedule that paces the PUTs.
  double service_rate(const std::vector<OpRecord>& ops, OpKind k) const {
    double bytes = 0.0, service_s = 0.0;
    for (const OpRecord& r : ops)
      if (r.kind == k && r.ok && kept(r.segment)) {
        bytes += static_cast<double>(r.object->bytes);
        service_s += r.service_s * speed_of(r.segment);
      }
    return safe_div(bytes, service_s);
  }
  /// Compensated latencies (ms) of successful `k` ops in kept segments.
  std::vector<double> latencies_ms(const std::vector<OpRecord>& ops,
                                   OpKind k) const {
    std::vector<double> out;
    for (const OpRecord& r : ops)
      if (r.kind == k && r.ok && kept(r.segment))
        out.push_back(r.latency_s * speed_of(r.segment) * 1e3);
    return out;
  }
};

/// Raw latencies (ms) of successful `k` ops.
std::vector<double> latencies_ms(const std::vector<OpRecord>& ops, OpKind k) {
  std::vector<double> out;
  for (const OpRecord& r : ops)
    if (r.kind == k && r.ok) out.push_back(r.latency_s * 1e3);
  return out;
}

std::uint64_t bytes_of(const std::vector<OpRecord>& ops, OpKind k) {
  std::uint64_t total = 0;
  for (const OpRecord& r : ops)
    if (r.kind == k && r.ok) total += r.object->bytes;
  return total;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Registry rows after − before, by name.
class MetricsDelta {
 public:
  MetricsDelta(const obs::MetricsSnapshot& before,
               const obs::MetricsSnapshot& after) {
    std::map<std::string, const obs::MetricRow*> old;
    for (const obs::MetricRow& r : before.rows) old[r.name] = &r;
    for (obs::MetricRow r : after.rows) {
      const auto it = old.find(r.name);
      if (it != old.end()) {
        const obs::MetricRow& o = *it->second;
        r.value -= o.value;
        r.count -= o.count;
        r.sum -= o.sum;
        for (std::size_t b = 0; b < r.buckets.size() && b < o.buckets.size();
             ++b)
          r.buckets[b].second -= o.buckets[b].second;
      }
      rows_[r.name] = std::move(r);
    }
  }
  double counter(const std::string& name) const {
    const auto it = rows_.find(name);
    return it == rows_.end() ? 0.0 : static_cast<double>(it->second.value);
  }
  double sum(const std::string& name) const {
    const auto it = rows_.find(name);
    return it == rows_.end() ? 0.0 : static_cast<double>(it->second.sum);
  }
  double count(const std::string& name) const {
    const auto it = rows_.find(name);
    return it == rows_.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  double quantile(const std::string& name, double q) const {
    const auto it = rows_.find(name);
    return it == rows_.end() ? 0.0 : it->second.quantile(q);
  }

 private:
  std::map<std::string, obs::MetricRow> rows_;
};

/// Server-side view of one traced client op, from the span ring.
struct ServerSpans {
  std::uint64_t first_start_us = ~std::uint64_t{0};
  std::uint64_t last_end_us = 0;
  std::uint64_t exec_us = 0;
};

/// The opcode of each op kind's first frame: its queue wait before
/// execution is the part of the server latency the spans do not cover.
std::uint16_t first_frame_opcode(OpKind k) {
  net::Op op = net::Op::kGetFile;
  switch (k) {
    case OpKind::kPut: op = net::Op::kPutBegin; break;
    case OpKind::kGet: op = net::Op::kGetFile; break;
    case OpKind::kFail: op = net::Op::kNodeFail; break;
    case OpKind::kRebuild: op = net::Op::kNodeRebuild; break;
  }
  return static_cast<std::uint16_t>(op);
}

const char* fs_name(const fs::path& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x2fc12fc1UL: return "zfs";
    default: return "other";
  }
}

double rss_peak_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// XOR kernel throughput on 4 KiB blocks, bytes/s.
double calibrate_xor() {
  Bytes a(kBlock * 256, 0x5a), b(kBlock * 256, 0xa5);
  std::uint64_t bytes = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t off = 0; off < a.size(); off += kBlock)
      xor_into(std::span<std::uint8_t>(a.data() + off, kBlock),
               BytesView(b.data() + off, kBlock));
    bytes += a.size();
  } while (secs(Clock::now() - start) < 0.05);
  return static_cast<double>(bytes) / secs(Clock::now() - start);
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// --- the two kinds of run ------------------------------------------------------

struct Options {
  Workload workload = Workload::kIngest;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir = ".bench_work";
};

struct RunResult {
  std::vector<Metric> metrics;
  std::string env_extra;  // extra JSON fields for the env stamp
};

/// Untraced run: the end-to-end metrics.
RunResult run_untraced(const Plan& plan, const Content& content,
                       const fs::path& root, Tally& tally) {
  HostProbe probe;
  Rig rig{plan, content, root};
  rig.probe = &probe;
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupRuns; ++i) {
    const double s = setup_in_child(rig);
    tally.check(s >= 0.0, "set-up in a child process");
    if (s >= 0.0) setups.push_back(s);
  }
  Sut sut;
  setups.push_back(rig.build(sut, tally));

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const Pass pass = run_pass(sut, rig, tally);
  settle(sut, tally);
  // Before the self-check scrub: its integrity scan reads every block
  // through the caching get path.
  const double rss_mib = rss_peak_mib();
  const MetricsDelta delta(before, obs::MetricsRegistry::global().snapshot());
  tally.check(delta.counter("encode.blocks") ==
                  static_cast<double>(encoded_blocks_of(plan, pass)),
              "encode.blocks equals the data blocks ingested");
  check_scrub(sut, tally);

  // User bytes in the archive that is live now (the last round's).
  std::uint32_t last_round = 0;
  for (const OpRecord& r : pass.ops) last_round = std::max(last_round, r.round);
  std::uint64_t user_bytes = plan.corpus_bytes();
  for (const OpRecord& r : pass.ops)
    if (r.kind == OpKind::kPut && r.ok && r.round == last_round)
      user_bytes += r.object->bytes;
  const double space_amp =
      safe_div(static_cast<double>(stored_bytes(*sut.archive)),
               static_cast<double>(user_bytes));

  // Headline op: ingest PUT, serve GET, node_loss degraded GET.
  const OpKind head = plan.workload == Workload::kIngest ? OpKind::kPut
                                                         : OpKind::kGet;
  const Segments head_seg(pass.head_speed), side_seg(pass.side_speed);
  const std::vector<double> head_ms = head_seg.latencies_ms(pass.ops, head);
  // Secondary op: ingest read-back GET, serve PUT, node_loss rebuild.
  const OpKind side = plan.workload == Workload::kIngest ? OpKind::kGet
                      : plan.workload == Workload::kServe ? OpKind::kPut
                                                          : OpKind::kRebuild;
  const std::vector<double> side_ms = side_seg.latencies_ms(pass.ops, side);
  RunResult out;
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"mb_s", head_seg.rate(pass.head_rates) / 1e6, "MB/s"},
      {"p50_ms", percentile(head_ms, 0.50), "ms"},
      {"p90_ms", percentile(head_ms, 0.90), "ms"},
      {"side_mb_s",
       (plan.workload == Workload::kServe ? side_seg.service_rate(pass.ops, side)
                                          : side_seg.rate(pass.side_rates)) /
           1e6,
       "MB/s"},
      {"side_p50_ms", percentile(side_ms, 0.50), "ms"},
      {"rss_peak_mib", rss_mib, "MiB"},
      {"space_amp", space_amp, "x"},
  };
  std::string& x = out.env_extra;
  x += ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i)
    x += (i ? ", " : "") + fmt(setups[i]);
  x += "], \"segment_mb_s\": [";
  for (std::size_t i = 0; i < pass.head_rates.size(); ++i)
    x += (i ? ", " : "") + fmt(pass.head_rates[i] / 1e6);
  x += "], \"side_segment_mb_s\": [";
  for (std::size_t i = 0; i < pass.side_rates.size(); ++i)
    x += (i ? ", " : "") + fmt(pass.side_rates[i] / 1e6);
  x += "], \"raw_mb_s\": " + fmt(median(pass.head_rates) / 1e6);
  x += ", \"raw_p50_ms\": " + fmt(percentile(latencies_ms(pass.ops, head), 0.5));
  x += ", \"speed_median\": " + fmt(median(pass.head_speed));
  x += ", \"speed_min\": " + fmt(percentile(pass.head_speed, 0.0));
  x += ", \"speed_max\": " + fmt(percentile(pass.head_speed, 1.0));
  x += ", \"head_segments\": " + std::to_string(pass.head_rates.size());
  x += ", \"head_ops\": " + std::to_string(head_ms.size());
  x += ", \"side_ops\": " + std::to_string(side_ms.size());
  x += ", \"head_p99_ms\": " + fmt(percentile(head_ms, 0.99));
  x += ", \"side_p90_ms\": " + fmt(percentile(side_ms, 0.90));
  if (!pass.generator_late_s.empty()) {
    std::vector<double> late_ms;
    for (double s : pass.generator_late_s) late_ms.push_back(s * 1e3);
    x += ", \"generator_late_ms_p50\": " + fmt(percentile(late_ms, 0.5));
    x += ", \"generator_late_ms_max\": " + fmt(percentile(late_ms, 1.0));
  }
  sut.discard();
  return out;
}

/// Traced run: the per-layer metrics, from three passes over the same op
/// sequence — untraced through the server (U), traced through the server
/// with the timed store (T), and direct against tools::Archive (D).
RunResult run_traced(const Plan& plan, const Content& content,
                     const fs::path& root, Tally& tally) {
  const double xor_rate = calibrate_xor();
  const OpKind head = plan.workload == Workload::kIngest ? OpKind::kPut
                                                         : OpKind::kGet;
  // U: the untraced reference for trace.overhead. It runs twice and
  // keeps the second, so neither U nor T is the process's cold first pass.
  double untraced_mb_s = 0.0;
  for (int i = 0; i < 2; ++i) {
    const Rig rig{plan, content, root};
    Sut sut;
    rig.build(sut, tally);
    const Pass u = run_pass(sut, rig, tally);
    untraced_mb_s = safe_div(static_cast<double>(bytes_of(u.ops, head)),
                             u.wall_s);    sut.discard();
  }

  // T: traced, with the timed store under each cluster node.
  TraceLog log;
  const Rig traced{plan, content, root, kTracedStore, true, true, &log};
  Sut sut;
  traced.build(sut, tally);
  obs::TraceRing& ring = obs::TraceRing::global();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  const StoreCounts store_before = StoreCounts::now();
  ring.enable();
  const Pass pass = run_pass(sut, traced, tally);
  // Time the ops kept the system busy (serve's writer and readers share
  // their windows, so serve has no separate secondary phase).
  const double pass_wall = pass.wall_s + pass.side_wall_s;
  settle(sut, tally);
  log.drain();
  ring.disable();
  const std::vector<obs::TraceEvent>& events = log.events;
  const std::uint64_t dropped = log.dropped;
  const StoreCounts store = StoreCounts::now() - store_before;
  const MetricsDelta delta(before, obs::MetricsRegistry::global().snapshot());
  tally.check(delta.counter("encode.blocks") ==
                  static_cast<double>(encoded_blocks_of(plan, pass)),
              "encode.blocks equals the data blocks ingested");
  // A wrapped ring loses spans while net.req.latency_us still counts
  // their ops, which would skew every server-side split below.
  tally.check(dropped == 0, "the span ring dropped no events");
  check_scrub(sut, tally);
  sut.discard();

  // D: the same ops straight into the archive.
  const Rig direct_rig{plan, content, root, kStore, false};
  Sut direct;
  direct_rig.build(direct, tally);
  const DirectTimes d = replay_direct(direct, direct_rig, pass, tally);
  direct.discard();

  // Server spans per trace id, and per first-frame opcode.
  std::map<std::uint64_t, ServerSpans> by_id;
  std::map<std::uint16_t, double> span_us_by_op;
  for (const obs::TraceEvent& ev : events) {
    if (std::strcmp(ev.name, "net.request") != 0 || ev.req == 0) continue;
    ServerSpans& s = by_id[ev.req];
    s.first_start_us = std::min(s.first_start_us, ev.start_us);
    s.last_end_us = std::max(s.last_end_us, ev.start_us + ev.dur_us);
    s.exec_us += ev.dur_us;
    span_us_by_op[static_cast<std::uint16_t>(ev.a0)] +=
        static_cast<double>(ev.dur_us);
  }
  // Client time C, server latency S (first frame enqueued → last frame
  // done), executor time E, per op kind.
  struct Split {
    double client_us = 0, server_us = 0, exec_us = 0;
    std::uint64_t ops = 0;
  };
  std::map<OpKind, Split> split;
  for (const OpRecord& r : pass.ops) {
    const auto it = by_id.find(r.trace_id);
    if (!r.ok || it == by_id.end()) continue;
    Split& s = split[r.kind];
    s.client_us += r.service_s * 1e6;
    s.server_us +=
        static_cast<double>(it->second.last_end_us - it->second.first_start_us);
    s.exec_us += static_cast<double>(it->second.exec_us);
    ++s.ops;
  }
  for (auto& [kind, s] : split) {
    const std::uint16_t op = first_frame_opcode(kind);
    s.server_us += delta.sum(std::string("net.req.latency_us.") +
                             net::op_name(op)) -
                   span_us_by_op[op];
  }
  const auto wire_share = [&](OpKind k) {
    const Split& s = split[k];
    return safe_div(s.client_us - s.server_us, s.client_us);
  };
  const auto queue_us = [&](OpKind k, double direct_s, std::uint64_t n) {
    const Split& s = split[k];
    if (s.ops == 0 || n == 0) return 0.0;
    return s.server_us / static_cast<double>(s.ops) -
           direct_s * 1e6 / static_cast<double>(n);
  };
  double client_all = 0, exec_all = 0;
  for (const auto& [kind, s] : split) {
    client_all += s.client_us;
    exec_all += s.exec_us;
  }

  const double put_bytes = static_cast<double>(bytes_of(pass.ops, OpKind::kPut));
  const double get_bytes = static_cast<double>(bytes_of(pass.ops, OpKind::kGet));
  const double user_bytes = put_bytes + get_bytes;
  double ops = 0;
  for (const OpRecord& r : pass.ops) ops += r.ok ? 1 : 0;
  const double traced_mb_s = safe_div(
      static_cast<double>(bytes_of(pass.ops, head)), pass.wall_s);
  double rebuilt_bytes = 0;
  for (const OpRecord& r : pass.ops)
    if (r.kind == OpKind::kRebuild && r.ok)
      rebuilt_bytes += static_cast<double>(r.repaired_blocks * kBlock);
  // Dimakis repair traffic: survivors' reads during each rebuild per
  // byte it re-materialized, and how evenly the survivors carried it.
  double survivor_reads = 0, load_ratio_sum = 0;
  for (std::size_t i = 0; i < pass.rebuild_node_reads.size(); ++i) {
    const std::uint32_t failed_node = static_cast<std::uint32_t>(i % kNodes);
    double sum = 0, max = 0, n = 0;
    for (std::size_t k = 0; k < pass.rebuild_node_reads[i].size(); ++k) {
      if (k == failed_node) continue;
      const auto b = static_cast<double>(pass.rebuild_node_reads[i][k]);
      sum += b;
      max = std::max(max, b);
      ++n;
    }
    survivor_reads += sum;
    load_ratio_sum += safe_div(max, sum / n);
  }
  const double xor_bytes =
      delta.counter("encode.blocks") * kAlpha * kBlock +
      delta.counter("repair.steps") * kBlock;
  const double wall_us = pass_wall * 1e6;
  const double issued = delta.counter("read.prefetch.issued");

  RunResult out;
  out.metrics = {
      {"net.put.wire_share", wire_share(OpKind::kPut), "ratio"},
      {"net.get.wire_share", wire_share(OpKind::kGet), "ratio"},
      {"net.bytes_in_per_user_byte",
       safe_div(delta.counter("net.req.bytes_in"), put_bytes), "B/B"},
      {"net.bytes_out_per_user_byte",
       safe_div(delta.counter("net.req.bytes_out"), get_bytes), "B/B"},
      {"net.req_rejected", delta.counter("net.req.rejected"), "count"},
      {"exec.get.queue_us", queue_us(OpKind::kGet, d.get_s, d.gets), "us"},
      {"exec.put.queue_us",
       queue_us(OpKind::kPut, d.put_write_s + d.put_close_s, d.puts), "us"},
      {"archive.put.write_us_per_mib",
       safe_div(d.put_write_s * 1e6, d.put_bytes / kMiB), "us/MiB"},
      {"archive.put.commit_us",
       safe_div(d.put_close_s * 1e6, static_cast<double>(d.puts)), "us"},
      {"archive.get.us_per_mib", safe_div(d.get_s * 1e6, d.get_bytes / kMiB),
       "us/MiB"},
      {"archive.rebuild.us_per_mib",
       safe_div(d.rebuild_s * 1e6,
                static_cast<double>(d.rebuilt_blocks * kBlock) / kMiB),
       "us/MiB"},
      {"pool.tasks_per_mib",
       safe_div(delta.counter("pool.tasks_submitted"), user_bytes / kMiB),
       "tasks/MiB"},
      {"pool.queue_wait_us.p50", delta.quantile("pool.queue_wait_us", 0.5),
       "us"},
      {"pool.queue_wait_us.p90", delta.quantile("pool.queue_wait_us", 0.9),
       "us"},
      {"encode.blocks", delta.counter("encode.blocks"), "count"},
      {"encode.batch_share", safe_div(delta.sum("encode.batch_us"), wall_us),
       "ratio"},
      {"repair.waves", delta.counter("repair.waves"), "count"},
      {"repair.steps", delta.counter("repair.steps"), "count"},
      {"repair.wave_share", safe_div(delta.sum("repair.wave_us"), wall_us),
       "ratio"},
      {"read.prefetch.hit_ratio",
       safe_div(delta.counter("read.prefetch.hit"), issued), "ratio"},
      {"read.prefetch.wasted_ratio",
       safe_div(delta.counter("read.prefetch.wasted"), issued), "ratio"},
      {"read.prefetch.fetch_wait_share",
       safe_div(delta.sum("read.prefetch.fetch_wait_us"), wall_us), "ratio"},
      {"store.put.calls", static_cast<double>(store.put_calls), "count"},
      {"store.put.busy_share",
       safe_div(static_cast<double>(store.put_ns) / 1e3, wall_us), "ratio"},
      {"store.get.calls", static_cast<double>(store.get_calls), "count"},
      {"store.get.busy_share",
       safe_div(static_cast<double>(store.get_ns) / 1e3, wall_us), "ratio"},
      {"store.write_amp",
       safe_div(static_cast<double>(store.put_bytes), put_bytes), "B/B"},
      {"store.read_amp",
       safe_div(static_cast<double>(store.get_bytes), get_bytes), "B/B"},
      {"cluster.repair_read_per_lost_byte",
       safe_div(survivor_reads, rebuilt_bytes), "B/B"},
      {"cluster.survivor_load_max_over_mean",
       safe_div(load_ratio_sum,
                static_cast<double>(pass.rebuild_node_reads.size())),
       "ratio"},
      {"health.deltas_per_op", safe_div(delta.counter("health.deltas"), ops),
       "count"},
      {"kernel.xor_bytes_per_user_byte", safe_div(xor_bytes, user_bytes),
       "B/B"},
      {"kernel.est_share", safe_div(xor_bytes / xor_rate * 1e6, wall_us),
       "ratio"},
      {"unattributed_share",
       safe_div(exec_all - d.total_s() * 1e6, client_all), "ratio"},
      {"trace.overhead", safe_div(untraced_mb_s, traced_mb_s) - 1.0, "ratio"},
  };

  // Traced-run report: one row per layer.
  struct Row {
    const char* layer;
    double count, busy_ms, wait_ms;
  };
  double client_us = 0, server_us = 0;
  for (const auto& [kind, s] : split) {
    client_us += s.client_us;
    server_us += s.server_us;
  }
  const std::vector<Row> rows = {
      {"net (wire)", delta.counter("net.req.count"),
       (client_us - server_us) / 1e3, 0},
      {"executor", delta.counter("net.req.count"), exec_all / 1e3,
       (server_us - exec_all) / 1e3},
      {"tools (direct)", static_cast<double>(d.puts + d.gets),
       d.total_s() * 1e3, 0},
      {"pipeline.pool", delta.counter("pool.tasks_submitted"), 0,
       delta.sum("pool.queue_wait_us") / 1e3},
      {"pipeline.encode", delta.counter("encode.batches"),
       delta.sum("encode.batch_us") / 1e3, 0},
      {"pipeline.repair", delta.counter("repair.waves"),
       delta.sum("repair.wave_us") / 1e3, 0},
      {"pipeline.prefetch", issued, 0,
       delta.sum("read.prefetch.fetch_wait_us") / 1e3},
      {"store", static_cast<double>(store.put_calls + store.get_calls),
       static_cast<double>(store.put_ns + store.get_ns) / 1e6, 0},
      {"kernel (est)", xor_bytes / kBlock, xor_bytes / xor_rate * 1e3, 0},
  };
  std::printf("\ntraced run — %s, pass wall %.3f s, %zu ops, %llu spans "
              "(%llu dropped)\n",
              to_string(plan.workload), pass_wall, pass.ops.size(),
              static_cast<unsigned long long>(events.size()),
              static_cast<unsigned long long>(dropped));
  std::printf("%-18s %12s %12s %10s %12s\n", "layer", "count", "busy_ms",
              "share", "wait_ms");
  std::string layer_json = "[";
  for (const Row& r : rows) {
    std::printf("%-18s %12.0f %12.2f %10.4f %12.2f\n", r.layer, r.count,
                r.busy_ms, safe_div(r.busy_ms * 1e3, wall_us), r.wait_ms);
    if (layer_json.size() > 1) layer_json += ", ";
    layer_json += std::string("{\"layer\": \"") + r.layer +
                  "\", \"count\": " + fmt(r.count) +
                  ", \"busy_ms\": " + fmt(r.busy_ms) +
                  ", \"share\": " + fmt(safe_div(r.busy_ms * 1e3, wall_us)) +
                  ", \"wait_ms\": " + fmt(r.wait_ms) + "}";
  }
  layer_json += "]";
  std::printf("unattributed_share %.4f   trace.overhead %.4f\n",
              out.metrics[out.metrics.size() - 2].value,
              out.metrics.back().value);
  out.env_extra = ", \"untraced_mb_s\": " + fmt(untraced_mb_s / 1e6) +
                  ", \"traced_mb_s\": " + fmt(traced_mb_s / 1e6) +
                  ", \"direct_s\": " + fmt(d.total_s()) +
                  ", \"xor_rate_gb_s\": " + fmt(xor_rate / 1e9) +
                  ", \"trace_events\": " + std::to_string(events.size()) +
                  ", \"trace_dropped\": " + std::to_string(dropped) +
                  ", \"layers\": " + layer_json;
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: aec_perfbench --workload ingest|serve|node_loss "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      have_workload = true;
      if (val == "ingest") opt.workload = Workload::kIngest;
      else if (val == "serve") opt.workload = Workload::kServe;
      else if (val == "node_loss") opt.workload = Workload::kNodeLoss;
      else return usage();
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--workdir") {
      opt.workdir = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || opt.seconds <= 0)
    return usage();

  // Ingest and serve drop a whole in-memory archive after every round
  // and build the next. Keep freed heap in the process instead of
  // returning it to the kernel and faulting it in again, so each round
  // sees a long-running server's warm heap, not a fresh process's:
  // page-fault and zeroing cost depends on the host's memory state and
  // made ingest throughput swing by a fifth between identical runs. The
  // trim threshold keeps the main heap; the top pad keeps the worker
  // threads' arenas, whose heaps glibc unmaps once they are wholly free
  // (which made every other ingest round a quarter slower).
  ::mallopt(M_TRIM_THRESHOLD, 1 << 30);
  ::mallopt(M_TOP_PAD, 128 << 20);
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  register_store_families();
  const Content content(opt.seed);
  // The traced run makes four passes, so each is a quarter as long. A
  // traced serve pass stays within one round: an archive rebuild inside
  // it would add a corpus ingest to every delta of the pass.
  double seconds = opt.seconds;
  if (opt.trace) {
    seconds *= 0.25;
    if (opt.workload == Workload::kServe)
      seconds = std::min(seconds, kServeWindowS * kServeWindowsPerRound);
  }
  const Plan plan = make_plan(opt.workload, opt.seed, seconds);
  fs::create_directories(opt.workdir);
  const fs::path root = fs::absolute(opt.workdir) /
                        (std::string(to_string(opt.workload)) + "-" +
                         std::to_string(::getpid()));
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: corpus %.1f MiB "
              "(%zu objects), %zu timed PUTs, %u node cycles\n",
              to_string(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0,
              static_cast<double>(plan.corpus_bytes()) / kMiB,
              plan.corpus.size(), plan.puts.size(), plan.cycles);

  Tally tally;
  RunResult result;
  try {
    result = opt.trace ? run_traced(plan, content, root, tally)
                       : run_untraced(plan, content, root, tally);
  } catch (const std::exception& e) {
    tally.attempted.fetch_add(1);
    tally.fail(std::string("run aborted: ") + e.what());
  }
  for (const std::string& e : tally.errors)
    std::printf("FAILED: %s\n", e.c_str());

  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"hw_cores\": %u, \"kernel\": \"%s\", "
      "\"root_fs\": \"%s\", \"engine_threads\": %zu, \"codec\": \"%s\", "
      "\"block_size\": %zu, \"store\": \"%s\", \"corpus_mib\": %s, "
      "\"corpus_objects\": %zu%s}}\n",
      to_string(opt.workload), static_cast<unsigned long long>(opt.seed),
      fmt(opt.seconds).c_str(), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), selected_kernel_name(),
      fs_name(opt.workdir), kThreads, kCodec,
      kBlock, opt.trace ? kTracedStore : kStore,
      fmt(static_cast<double>(plan.corpus_bytes()) / kMiB).c_str(),
      plan.corpus.size(), result.env_extra.c_str());
  const bool correct = tally.failed.load() == 0 && !result.metrics.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(1, tally.attempted.load())),
              static_cast<unsigned long long>(tally.failed.load()),
              json_metrics(result.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aec_perfbench: %s\n", e.what());
    return 2;
  }
}
