// Durable redundant archive: a registry-built BlockStore + one Codec +
// one Engine + a plain-text manifest. This is the "downstream user" face
// of the library — what the aectool CLI drives.
//
// The archive is codec-generic AND store-generic: the codec spec
// ("AE(3,2,5)", "RS(10,4)", "REP(3)") and the store spec ("file",
// "sharded(8)", "mem") are both picked at create() time, recorded in the
// manifest, and rebuilt by open(). Execution goes through an
// `aec::Engine`'s shared worker pool (a 1-thread engine is the serial
// path; the stored bytes are identical at every thread count and on
// every backend).
//
// The health census (obs::HealthMonitor) rides along as the store's
// mutation observer and is the archive's one record of what is missing:
// damage censuses (missing_blocks, aectool stat) and repair planning
// (scrub, rebuild_node, which hand its missing keys to repair_all) cost
// O(damage) instead of a full store scan — the census is seeded at open
// and every put/erase keeps it current. Every open seeds it the same
// way: one walk of the expected keys against the index the store built
// as it opened, so damage made while the archive was closed (a block
// file deleted, another copied in) is seen. Damage inflicted OUT OF
// BAND while the archive is open (block files deleted externally) is
// invisible to the census — reindex() (aectool reindex) rescans the
// store and reseeds.
//
// When the manifest's store spec is a cluster(...), the archive is
// multi-node: fail_node/heal_node inject whole-failure-domain outages
// (the cluster announces the damage to the census, so scrub plans node
// loss exactly like scattered block loss), and rebuild_node() wipes the
// failed node, builds a replacement backend, and re-materializes every
// block the placement map assigns to it through the normal repair
// planner.
//
// Manifest (<root>/manifest.txt), version 2:
//   aec-archive v2
//   codec <spec>            e.g. AE(3,2,5) / RS(10,4) / REP(3)
//   store <spec>            e.g. file / sharded(8)   (absent = file)
//   block_size <bytes>
//   blocks <count>
//   file <hex-name> <first_block> <bytes>
//   …
//   end <file-count>        truncation guard — must be the last line
//
// Version-1 manifests (AE-only, "code <alpha> <s> <p>") still open;
// the first write upgrades them to v2.
//
// Files are stored as consecutive block runs (zero-padded tail). Ingest
// is streaming: begin_file() returns a FileWriter whose chunked write()
// entangles one bounded window of blocks at a time, so huge files never
// buffer fully in memory; add_file() is one write() through it.
// Reads repair missing blocks through the codec transparently; scrub()
// runs the global repair plus the integrity scan.
//
// Concurrency contract — one writer, many readers, exclusive operations:
//   · Readers: open_reader/try_open_reader/read_file, and the const
//     queries (files, find_file, blocks, stat_json, metrics, …), are
//     safe from any number of threads at once. Each FileReader is used
//     by one thread at a time, and its repair-on-read runs beside other
//     readers and beside the writer.
//   · The writer: begin_file/add_file and the FileWriter they return
//     are driven by one thread at a time. Appends run beside readers; a
//     file becomes visible to readers only once close() commits it.
//   · Exclusive operations: scrub, reindex, inject_damage and the node
//     operations (fail_node, heal_node, rebuild_node) wait until every
//     open FileReader is destroyed, on whatever thread it has moved to,
//     and keep new ones from opening until they finish. They come from
//     the writer's thread, or at least never overlap a write. A thread
//     that holds an open FileReader must neither run one (it would wait
//     for its own reader) nor open a second reader (a waiting exclusive
//     operation keeps the second out until the first is gone).
// aecd maps this onto threads directly: its writer lane runs every
// write and exclusive operation, and its read lanes serve GET_FILE.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/codec.h"
#include "api/engine.h"
#include "api/session.h"
#include "cluster/cluster_store.h"
#include "core/codec/block_store.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace aec::tools {

struct FileEntry {
  std::string name;
  NodeIndex first_block = 0;
  std::uint64_t bytes = 0;

  std::uint64_t block_count(std::size_t block_size) const {
    return (bytes + block_size - 1) / block_size;
  }
};

struct ScrubReport {
  RepairReport repair;
  std::uint64_t inconsistent_parities = 0;
  std::vector<NodeIndex> suspect_nodes;
};

/// One row of the availability census (aectool stat): how many blocks of
/// one kind/class an intact archive would hold, and how many the health
/// census reports missing right now.
struct AvailabilityClassSummary {
  std::string label;  // "data", "parity H", …
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
};

class Archive;

/// Admits any number of readers at once, or one exclusive operation (see
/// the concurrency contract above). An exclusive operation waiting for
/// the readers to leave keeps new ones out, so a steady stream of reads
/// cannot starve it. A lease belongs to its FileReader, not to a thread,
/// so it may be released on any thread.
class ReadGate {
 public:
  struct Release {
    void operator()(ReadGate* gate) const { gate->leave(); }
  };
  using Lease = std::unique_ptr<ReadGate, Release>;

  /// A reader's lease: blocks while an exclusive operation runs or waits.
  Lease enter();

  /// Exclusive side (BasicLockable): waits for every lease to be
  /// released.
  void lock();
  void unlock();

 private:
  void leave();

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t leases_ = 0;
  std::size_t exclusive_waiting_ = 0;
  bool exclusive_ = false;
};

/// Streaming ingest handle for one file (from Archive::begin_file). Feed
/// chunks of any size through write(); they are copied into one window
/// buffer of Engine::ingest_window_blocks() blocks, which is appended to
/// the session, as one run, each time it fills. So the window boundaries
/// fall every ingest_window_blocks() blocks of the file, and a write()
/// of any size holds at most one window of memory. close() zero-pads the
/// tail to a whole block (an empty file takes one zero block), appends
/// it and commits the manifest entry.
///
/// Destroying an unclosed writer abandons the file: no manifest entry is
/// written; blocks already flushed stay in the store as unreferenced
/// lattice filler until later ingest overwrites them (exactly the state
/// a crash mid-put leaves behind, which reopen resumes from).
///
/// A writer whose window append failed (a store error) has lost that
/// window's blocks and is poisoned: later write() and close() throw and
/// commit nothing, and the next writer re-encodes the same positions.
class FileWriter {
 public:
  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&&) = delete;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter();

  /// Appends a chunk (any size, including empty). Throws CheckError if
  /// the writer is closed or poisoned, and rethrows a failed append.
  void write(BytesView chunk);

  /// Flushes the tail, records the manifest entry and returns it (valid
  /// until the writer's thread commits another file). The writer is
  /// unusable afterwards. Throws CheckError if the writer is poisoned.
  const FileEntry& close();

  const std::string& name() const noexcept { return name_; }
  std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  friend class Archive;
  FileWriter(Archive* archive, std::string name);

  /// Appends window_ to the session and empties it; poisons the writer
  /// when the append throws.
  void append_window();

  Archive* archive_;  // null once closed/moved-from
  std::string name_;
  NodeIndex first_block_ = 0;
  std::uint64_t bytes_ = 0;
  /// The file's bytes not yet appended: less than one window, reserved
  /// to a whole window at the first write.
  Bytes window_;
  bool failed_ = false;  // an append threw: see the class comment
};

/// Streaming read handle for one archived file (from
/// Archive::open_reader) — the read-side mirror of FileWriter. The
/// reader keeps one BlockStream over the file's whole block run, so the
/// session's pipelined read path (prefetch + repair-on-read) looks ahead
/// across call boundaries, and a huge file streams at bounded memory
/// (window × block_size) instead of materializing fully. A reader holds a
/// lease on the archive's ReadGate for its lifetime, wherever it moves,
/// so exclusive operations wait for it.
///
/// read_views is the one walk over the decoded blocks: it hands out the
/// file's bytes as views of them, and read_into and next_chunk (and so
/// Archive::read_file) copy from those views. The blocks are the
/// stream's Blocks, shared with the store: aecd sends a GET_DATA frame's
/// payload straight from the views, so a GET from an in-memory archive
/// copies nothing in user space, and one from a file archive copies once,
/// in the read() into the Block.
class FileReader {
 public:
  FileReader(FileReader&& other) noexcept = default;
  FileReader& operator=(FileReader&&) = delete;
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// The file's next min(max_bytes, bytes left) bytes, as views of the
  /// decoded blocks in file order — no copy. The views stay valid until
  /// the next read call on this reader (read_views, read_into or
  /// next_chunk), which releases the blocks they point into, and at
  /// most max_bytes / block_size + 2 blocks are held meanwhile. Blocks
  /// may straddle calls; the zero-padded tail is trimmed. No views means
  /// EOF (for max_bytes > 0); nullopt means an irrecoverable block
  /// (sticky — the reader stays failed). Repairs performed along the
  /// way are persisted, as on every session read.
  std::optional<std::span<const BytesView>> read_views(std::size_t max_bytes);

  /// Appends the file's next min(max_bytes, bytes left) bytes to `out`
  /// — a copy of read_views, one lookahead window per call of it — and
  /// returns how many it appended. 0 means EOF (for max_bytes > 0);
  /// nullopt means an irrecoverable block, as for read_views (bytes
  /// appended by the failing call are unspecified).
  std::optional<std::size_t> read_into(Bytes& out, std::size_t max_bytes);

  /// Next lookahead window's worth of file content, valid until the
  /// next call (read_into into an internal buffer, under one
  /// "read.window" trace span). An empty view means EOF; nullopt means
  /// an irrecoverable block, as for read_views.
  std::optional<BytesView> next_chunk();

  const std::string& name() const noexcept { return name_; }
  /// Total file size and how much has been handed out so far.
  std::uint64_t size_bytes() const noexcept { return bytes_; }
  std::uint64_t bytes_delivered() const noexcept { return delivered_; }
  bool failed() const noexcept { return failed_; }

 private:
  friend class Archive;
  FileReader(Archive* archive, const FileEntry& entry, std::size_t window);

  /// Pulls the stream's next block onto held_; false (and failed) when
  /// it is irrecoverable.
  bool next_block();

  std::string name_;
  std::uint64_t bytes_ = 0;
  std::size_t chunk_bytes_ = 0;  // next_chunk()'s size: one window
  /// Declared before stream_: released only after the stream has drained
  /// its in-flight prefetch tasks.
  ReadGate::Lease lease_;
  /// Every block of the file (≥ 1 even for empty files); null once
  /// moved-from.
  std::unique_ptr<BlockStream> stream_;
  /// The blocks the last read_views' views point into, in file order;
  /// the back one is being drained. They are the stream's Blocks, shared
  /// with the store, whose bytes never move, so the views survive held_
  /// growing and the store overwriting or erasing the keys.
  std::vector<Block> held_;
  std::size_t block_pos_ = 0;    // bytes of held_.back() already handed out
  std::vector<BytesView> views_;  // the last read_views' result
  std::uint64_t delivered_ = 0;  // bytes handed out so far
  bool failed_ = false;
  Bytes buffer_;  // next_chunk()'s window
};

class Archive {
 public:
  /// Creates a fresh archive (root must not already hold a manifest).
  /// `codec_spec` is built by make_codec() ("AE(3,2,5)",
  /// "RS(10,4)", "REP(3)", …) and `store_spec` through the StoreRegistry
  /// ("file", "sharded(8)", "mem"; empty = "file"). A null `engine` means
  /// Engine::serial(). The engine is a per-process execution choice, not
  /// an archive property — the stored bytes are identical for every
  /// engine; the store spec IS an archive property and is recorded in
  /// the manifest.
  static std::unique_ptr<Archive> create(std::filesystem::path root,
                                         const std::string& codec_spec,
                                         std::size_t block_size,
                                         std::shared_ptr<Engine> engine = {},
                                         const std::string& store_spec = {});

  /// Opens an existing archive from its manifest (v1 or v2). The store
  /// backend comes from the manifest's store spec; a null `engine` means
  /// Engine::serial(), as for create().
  static std::unique_ptr<Archive> open(std::filesystem::path root,
                                       std::shared_ptr<Engine> engine = {});

  const Codec& codec() const noexcept { return *codec_; }
  /// AE archives only: the entanglement parameters.
  const CodeParams& params() const;
  std::size_t block_size() const noexcept { return block_size_; }
  std::uint64_t blocks() const noexcept { return session_->size(); }
  Engine& engine() const noexcept { return *engine_; }
  std::size_t threads() const noexcept { return engine_->threads(); }
  /// Snapshot of the committed files, in commit order.
  std::vector<FileEntry> files() const;
  /// The manifest-recorded store backend spec ("file", "sharded(8)", …).
  const std::string& store_spec() const noexcept { return store_spec_; }
  /// The live health census: what is missing, and for AE archives the
  /// per-block repair margins (other codecs get damage counts only). Fed
  /// by the store's mutation notifications.
  const obs::HealthMonitor& health() const noexcept { return health_; }
  obs::HealthMonitor& health() noexcept { return health_; }

  /// Opens a streaming writer for a new file. Name must be unique; only
  /// one writer may be open at a time (file blocks are consecutive).
  FileWriter begin_file(const std::string& name);

  /// Appends a fully buffered file; returns its entry. Name must be
  /// unique. One FileWriter::write() of `content`.
  const FileEntry& add_file(const std::string& name, BytesView content);

  /// Reads a file back through the windowed read path (repairing blocks
  /// as needed through the codec); nullopt if the name is unknown or
  /// content is irrecoverable.
  std::optional<Bytes> read_file(const std::string& name);

  /// Opens a streaming reader for an archived file (CheckError when the
  /// name is unknown). `window` is the lookahead in blocks; 0 =
  /// CodecSession::kReadWindowBlocks. Multiple readers may be open at
  /// once.
  FileReader open_reader(const std::string& name, std::size_t window = 0);

  /// open_reader for a name that may be unknown: nullopt then. The
  /// lookup and the open see one state of the file table.
  std::optional<FileReader> try_open_reader(const std::string& name,
                                            std::size_t window = 0);

  /// The manifest entry for `name` (a copy), or nullopt — O(1) via the
  /// name index.
  std::optional<FileEntry> find_file(const std::string& name) const;

  /// Global repair + integrity scan (exclusive). The repair plans from
  /// the census's missing keys — O(damage), no store scan.
  ScrubReport scrub();

  /// Missing blocks right now, from the census's missing keys — no store
  /// probes.
  std::uint64_t missing_blocks() const;

  /// Availability census per block kind/class (data, then one row per
  /// parity class the codec stores) — the `aectool stat` table.
  std::vector<AvailabilityClassSummary> availability_summary() const;

  /// Process-wide metrics snapshot, with per-node traffic counters
  /// (`cluster.node<k>.bytes_read` …) appended when the backend is a
  /// cluster — the `aectool stat --metrics` payload.
  obs::MetricsSnapshot metrics() const;

  /// The `aectool stat --json` object (spec + availability census,
  /// optionally the metrics snapshot) — also the daemon's STAT reply,
  /// so both surfaces share one schema.
  std::string stat_json(bool include_metrics = false) const;

  /// Deletes a random fraction of the block files (damage injection for
  /// demos/tests; exclusive). Returns how many blocks were destroyed.
  std::uint64_t inject_damage(double fraction, std::uint64_t seed);

  /// Re-reads authoritative store presence (directory rescan) and
  /// reseeds the health census from it — the recovery path for
  /// out-of-band damage the census cannot observe (exclusive). Returns
  /// the missing count afterwards.
  std::uint64_t reindex();

  // --- multi-node archives (cluster store backends) -------------------------

  /// The cluster backend, or nullptr when the archive's store is not a
  /// cluster(...). (The census observes the cluster, so fault injection
  /// through this pointer keeps censuses and repair planning accurate.)
  cluster::ClusterStore* cluster() const noexcept { return cluster_; }

  /// Fault injection on a cluster archive (CheckError otherwise);
  /// exclusive, like rebuild_node. heal_node returns once the repairs
  /// staged during the outage are on the node's backing medium.
  void fail_node(std::uint32_t node);
  void heal_node(std::uint32_t node);

  /// Replaces a failed node with a fresh backend and re-materializes
  /// every block the placement map assigns to it by driving the repair
  /// planner (RapidRAID-style per-node rebuild: cost scales with the
  /// node's share of the lattice, not the archive). The node must be
  /// down. Returns, with every rebuilt block on the backing medium (as
  /// scrub does), the repair report of the rebuild pass.
  RepairReport rebuild_node(std::uint32_t node);

 private:
  friend class FileWriter;
  friend class FileReader;

  Archive(std::filesystem::path root, std::shared_ptr<const Codec> codec,
          std::string store_spec, std::size_t block_size,
          std::uint64_t resume_count, std::vector<FileEntry> files,
          std::shared_ptr<Engine> engine);

  void save_manifest() const;

  /// Full O(lattice) census reseed from store presence, in one
  /// HealthMonitor::seed call.
  void seed_census();

  std::filesystem::path root_;
  std::shared_ptr<const Codec> codec_;
  std::string store_spec_;
  std::size_t block_size_;
  std::shared_ptr<Engine> engine_;
  /// Guards files_ and file_index_: FileWriter::close appends under the
  /// exclusive lock, every lookup takes the shared one.
  mutable std::shared_mutex files_mu_;
  std::vector<FileEntry> files_;
  /// name → position in files_, maintained by the constructor and
  /// FileWriter::close (duplicates are rejected at manifest load and at
  /// begin_file). Lookups (read_file, begin_file, open_reader) are O(1)
  /// instead of a per-call scan of every entry.
  std::unordered_map<std::string, std::size_t> file_index_;
  /// Open FileReaders against exclusive operations.
  ReadGate read_gate_;
  /// Mutation-fed missing set and vulnerability scores; observer of
  /// store_. Declared before the store so it outlives the store's
  /// notifications.
  obs::HealthMonitor health_;
  /// Registry-built backend ("file", "sharded(N)", "mem"); it locks
  /// itself, so the session runs on it directly.
  std::unique_ptr<BlockStore> store_;
  /// The one engine-dispatched encode/repair path (AE lattice pipeline
  /// or codec stripes — see Engine::open_session).
  std::unique_ptr<CodecSession> session_;
  /// Downcast of store_ when the backend is a cluster (else null).
  cluster::ClusterStore* cluster_ = nullptr;
  bool writer_open_ = false;
};

}  // namespace aec::tools
