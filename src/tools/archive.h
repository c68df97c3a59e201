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
// An AvailabilityIndex rides along as the store's mutation observer:
// damage censuses (missing_blocks, aectool stat) and repair planning
// (scrub) cost O(damage) instead of a full store scan — the index is
// seeded at open and every put/erase keeps it current. A clean close
// persists the index as a manifest sidecar (<root>/availability.txt);
// the next open loads it instead of walking the whole lattice when its
// freshness guards (data-block count + stored-block count) still match,
// and falls back to the full seeding walk otherwise. The sidecar is
// deleted as soon as it is consumed, so a crash never leaves a stale
// one behind. Damage inflicted OUT OF BAND while the archive is open
// (block files deleted externally) is invisible to the index either
// way — reindex() (aectool reindex) rescans the store and reseeds.
//
// When the manifest's store spec is a cluster(...), the archive is
// multi-node: fail_node/heal_node inject whole-failure-domain outages
// (the cluster announces the damage to the index, so scrub plans node
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
// buffer fully in memory; add_file() is a convenience wrapper over it.
// Reads repair missing blocks through the codec transparently; scrub()
// runs the global repair plus the integrity scan.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/codec.h"
#include "api/engine.h"
#include "api/session.h"
#include "cluster/cluster_store.h"
#include "core/codec/availability_index.h"
#include "core/codec/block_store.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "pipeline/concurrent_block_store.h"

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
/// one kind/class an intact archive would hold, and how many the index
/// reports missing right now.
struct AvailabilityClassSummary {
  std::string label;  // "data", "parity H", …
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
};

class Archive;

/// Streaming ingest handle for one file (from Archive::begin_file). Feed
/// chunks of any size through write(); whole windows of blocks are
/// encoded and persisted as they fill, so peak memory stays bounded by
/// the engine's ingest window regardless of file size. close() seals the
/// zero-padded tail block and commits the manifest entry.
///
/// Destroying an unclosed writer abandons the file: no manifest entry is
/// written; blocks already flushed stay in the store as unreferenced
/// lattice filler until later ingest overwrites them (exactly the state
/// a crash mid-put leaves behind, which reopen resumes from).
class FileWriter {
 public:
  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&&) = delete;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter();

  /// Appends a chunk (any size, including empty). Throws CheckError if
  /// the writer is closed.
  void write(BytesView chunk);

  /// Flushes the tail, records the manifest entry and returns it. The
  /// writer is unusable afterwards.
  const FileEntry& close();

  const std::string& name() const noexcept { return name_; }
  std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  friend class Archive;
  FileWriter(Archive* archive, std::string name);

  /// Encodes every full window currently buffered.
  void flush_windows();
  /// Moves the first `count` ready blocks into a batch (O(count) span
  /// moves, no byte memmove).
  std::vector<Bytes> take_ready(std::size_t count);

  Archive* archive_;  // null once closed/moved-from
  std::string name_;
  NodeIndex first_block_ = 0;
  std::uint64_t bytes_ = 0;
  /// Ring of sealed block-sized spans awaiting a window flush. A deque
  /// pop_front is O(1) per block, unlike the old linear pending buffer
  /// whose every flush memmoved the whole remainder to the front.
  std::deque<Bytes> ready_;
  /// The one partially filled tail block (< block_size bytes).
  Bytes partial_;
};

/// Streaming read handle for one archived file (from
/// Archive::open_reader) — the read-side mirror of FileWriter. The
/// reader keeps one BlockStream over the file's whole block run, so the
/// session's pipelined read path (prefetch + repair-on-read) looks ahead
/// across call boundaries, and a huge file streams at bounded memory
/// (window × block_size) instead of materializing fully.
class FileReader {
 public:
  FileReader(FileReader&& other) noexcept = default;
  FileReader& operator=(FileReader&&) = delete;
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// Appends the file's next min(max_bytes, bytes left) bytes to `out`
  /// — one copy, straight from the decoded blocks — and returns how
  /// many it appended. Blocks may straddle calls; the zero-padded tail
  /// is trimmed. 0 means EOF (for max_bytes > 0); nullopt means an
  /// irrecoverable block (sticky — the reader stays failed, and bytes
  /// appended by the failing call are unspecified). Repairs performed
  /// along the way are persisted, exactly like read_block().
  std::optional<std::size_t> read_into(Bytes& out, std::size_t max_bytes);

  /// Next lookahead window's worth of file content, valid until the
  /// next call (read_into into an internal buffer, under one
  /// "read.window" trace span). An empty view means EOF; nullopt means
  /// an irrecoverable block, as for read_into.
  std::optional<BytesView> next_chunk();

  const std::string& name() const noexcept { return name_; }
  /// Total file size and how much has been handed out so far.
  std::uint64_t size_bytes() const noexcept { return bytes_; }
  std::uint64_t bytes_delivered() const noexcept { return delivered_; }
  bool failed() const noexcept { return failed_; }

 private:
  friend class Archive;
  FileReader(Archive* archive, const FileEntry& entry, std::size_t window);

  /// Pulls the stream's next block into block_; false (and failed) when
  /// it is irrecoverable.
  bool next_block();

  std::string name_;
  std::uint64_t bytes_ = 0;
  std::size_t chunk_bytes_ = 0;  // next_chunk()'s size: one window
  /// Every block of the file (≥ 1 even for empty files); null once
  /// moved-from.
  std::unique_ptr<BlockStream> stream_;
  Bytes block_;                  // the block being drained
  std::size_t block_pos_ = 0;    // bytes of block_ already handed out
  std::uint64_t delivered_ = 0;  // bytes handed out so far
  bool failed_ = false;
  Bytes buffer_;  // next_chunk()'s window
};

class Archive {
 public:
  /// Creates a fresh archive (root must not already hold a manifest).
  /// `codec_spec` is resolved through the CodecRegistry ("AE(3,2,5)",
  /// "RS(10,4)", "REP(3)", …) and `store_spec` through the StoreRegistry
  /// ("file", "sharded(8)", "mem"; empty = the engine's default, which
  /// is "file" unless configured). A null `engine` means
  /// Engine::serial(). The engine is a per-process execution choice, not
  /// an archive property — the stored bytes are identical for every
  /// engine; the store spec IS an archive property and is recorded in
  /// the manifest.
  static std::unique_ptr<Archive> create(std::filesystem::path root,
                                         const std::string& codec_spec,
                                         std::size_t block_size,
                                         std::shared_ptr<Engine> engine = {},
                                         const std::string& store_spec = {});

  /// Back-compat: AE codec from params + a bare thread count.
  static std::unique_ptr<Archive> create(std::filesystem::path root,
                                         CodeParams params,
                                         std::size_t block_size,
                                         std::size_t threads = 1);

  /// Opens an existing archive from its manifest (v1 or v2). The store
  /// backend comes from the manifest's store spec.
  static std::unique_ptr<Archive> open(std::filesystem::path root,
                                       std::shared_ptr<Engine> engine);
  static std::unique_ptr<Archive> open(std::filesystem::path root,
                                       std::size_t threads = 1);

  ~Archive();

  const Codec& codec() const noexcept { return *codec_; }
  /// AE archives only: the entanglement parameters.
  const CodeParams& params() const;
  std::size_t block_size() const noexcept { return block_size_; }
  std::uint64_t blocks() const noexcept { return session_->size(); }
  Engine& engine() const noexcept { return *engine_; }
  std::size_t threads() const noexcept { return engine_->threads(); }
  const std::vector<FileEntry>& files() const noexcept { return files_; }
  /// The manifest-recorded store backend spec ("file", "sharded(8)", …).
  const std::string& store_spec() const noexcept { return store_spec_; }
  /// The live availability index (kept current by store mutations).
  const AvailabilityIndex& availability_index() const noexcept {
    return avail_index_;
  }
  /// Live vulnerability telemetry (AE archives score per-block repair
  /// margins; other codecs get damage counts only). Fed incrementally by
  /// the availability index's delta stream.
  const obs::HealthMonitor& health() const noexcept { return health_; }
  obs::HealthMonitor& health() noexcept { return health_; }

  /// Opens a streaming writer for a new file. Name must be unique; only
  /// one writer may be open at a time (file blocks are consecutive).
  FileWriter begin_file(const std::string& name);

  /// Appends a fully buffered file; returns its entry. Name must be
  /// unique. Implemented over begin_file().
  const FileEntry& add_file(const std::string& name, BytesView content);

  /// Reads a file back through the windowed read path (repairing blocks
  /// as needed through the codec); nullopt if the name is unknown or
  /// content is irrecoverable.
  std::optional<Bytes> read_file(const std::string& name);

  /// Opens a streaming reader for an archived file (CheckError when the
  /// name is unknown). `window` is the lookahead in blocks; 0 = the
  /// engine's resolved default. Multiple readers may be open at once.
  FileReader open_reader(const std::string& name, std::size_t window = 0);

  /// The manifest entry for `name`, or nullptr — O(1) via the name
  /// index. The pointer stays valid until the file set next changes.
  const FileEntry* find_file(const std::string& name) const;

  /// Global repair + integrity scan. Availability comes from the
  /// incremental index — O(damage), no store scan.
  ScrubReport scrub();

  /// Missing blocks right now, from the index — O(damage).
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
  /// demos/tests). Returns how many blocks were destroyed.
  std::uint64_t inject_damage(double fraction, std::uint64_t seed);

  /// True when the open skipped the O(lattice) seeding walk because a
  /// fresh availability sidecar was consumed.
  bool opened_from_sidecar() const noexcept { return opened_from_sidecar_; }

  /// Re-reads authoritative store presence (directory rescan) and
  /// reseeds the availability index from it — the recovery path for
  /// out-of-band damage the index cannot observe. Returns the missing
  /// count afterwards.
  std::uint64_t reindex();

  // --- multi-node archives (cluster store backends) -------------------------

  /// The cluster backend, or nullptr when the archive's store is not a
  /// cluster(...). (The index observes the cluster, so fault injection
  /// through this pointer keeps censuses and repair planning accurate.)
  cluster::ClusterStore* cluster() const noexcept { return cluster_; }

  /// Fault injection on a cluster archive (CheckError otherwise).
  void fail_node(std::uint32_t node);
  void heal_node(std::uint32_t node);

  /// Replaces a failed node with a fresh backend and re-materializes
  /// every block the placement map assigns to it by driving the repair
  /// planner (RapidRAID-style per-node rebuild: cost scales with the
  /// node's share of the lattice, not the archive). The node must be
  /// down. Returns the repair report of the rebuild pass.
  RepairReport rebuild_node(std::uint32_t node);

 private:
  friend class FileWriter;
  friend class FileReader;

  Archive(std::filesystem::path root, std::shared_ptr<const Codec> codec,
          std::string store_spec, std::size_t block_size,
          std::uint64_t resume_count, std::vector<FileEntry> files,
          std::shared_ptr<Engine> engine);

  void save_manifest() const;

  /// Loads + deletes the availability sidecar; true when it was fresh
  /// and the missing set was applied (seeding walk can be skipped).
  bool load_availability_sidecar();
  /// Persists the current missing set (clean-close path; best effort).
  void save_availability_sidecar() const;
  /// Full O(lattice) index reseed from store presence.
  void seed_availability_index();

  std::filesystem::path root_;
  std::shared_ptr<const Codec> codec_;
  std::string store_spec_;
  std::size_t block_size_;
  std::shared_ptr<Engine> engine_;
  std::vector<FileEntry> files_;
  /// name → position in files_, maintained by the constructor and
  /// FileWriter::close (duplicates are rejected at manifest load and at
  /// begin_file). Lookups (read_file, begin_file, open_reader) are O(1)
  /// instead of a per-call scan of every entry.
  std::unordered_map<std::string, std::size_t> file_index_;
  /// Per-block vulnerability scores, fed by avail_index_'s delta stream.
  /// Declared before the index so it outlives the index's notifications
  /// (mutable: stat_json lazily catches margins up to archive growth).
  mutable obs::HealthMonitor health_;
  /// Mutation-fed missing-block set; observer of store_. Declared before
  /// the store so it outlives the store's notifications.
  AvailabilityIndex avail_index_;
  /// Registry-built backend ("file", "sharded(N)", "mem").
  std::unique_ptr<BlockStore> store_;
  /// Single-mutex wrapper, built only when the backend is not itself
  /// thread-safe (FileBlockStore, InMemoryBlockStore); sharded backends
  /// are used directly.
  std::unique_ptr<pipeline::LockedBlockStore> locked_store_;
  /// What the session reads/writes: locked_store_ when present, else
  /// store_.
  BlockStore* session_store_ = nullptr;
  /// The one engine-dispatched encode/repair path (AE lattice pipeline
  /// or codec stripes — see Engine::open_session).
  std::unique_ptr<CodecSession> session_;
  /// Downcast of store_ when the backend is a cluster (else null).
  cluster::ClusterStore* cluster_ = nullptr;
  bool opened_from_sidecar_ = false;
  bool writer_open_ = false;
};

}  // namespace aec::tools
