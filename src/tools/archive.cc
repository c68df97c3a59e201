#include "tools/archive.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "common/cpu.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/codec/store_registry.h"
#include "core/util/tagged_file.h"

namespace aec::tools {

namespace fs = std::filesystem;

namespace {

// File names are hex-escaped in the manifest so arbitrary names (spaces,
// newlines, UTF-8) survive the line-oriented format.
std::string hex_encode(const std::string& s) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * s.size());
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string hex_decode(const std::string& s) {
  AEC_CHECK_MSG(s.size() % 2 == 0, "manifest: odd hex name");
  std::string out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = hex_value(s[i]);
    const int lo = hex_value(s[i + 1]);
    AEC_CHECK_MSG(hi >= 0 && lo >= 0, "manifest: bad hex name");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

struct ParsedManifest {
  std::string codec_spec;
  std::string store_spec = "file";  // absent tag = the classic backend
  std::size_t block_size = 0;
  std::uint64_t blocks = 0;
  std::vector<FileEntry> files;
};

/// Parses and validates a v1 or v2 manifest. Every structural defect —
/// unknown header/tag, malformed line, duplicate file name, file run
/// outside the block range, missing v2 end marker — is a CheckError
/// here, not a confusing downstream failure.
ParsedManifest parse_manifest(std::istream& in) {
  util::TaggedReader reader(in, "manifest");
  const bool v2 = reader.header() == "aec-archive v2";
  AEC_CHECK_MSG(v2 || reader.header() == "aec-archive v1",
                "unknown manifest header '" << reader.header() << "'");

  ParsedManifest manifest;
  util::TaggedRow row;
  while (reader.next(row)) {
    if (v2 && row.tag() == "codec") {
      row >> manifest.codec_spec;
    } else if (v2 && row.tag() == "store") {
      row >> manifest.store_spec;
    } else if (!v2 && row.tag() == "code") {
      // v1 manifests are AE-only: "code <alpha> <s> <p>".
      std::uint32_t alpha = 0;
      std::uint32_t s = 0;
      std::uint32_t p = 0;
      row >> alpha >> s >> p;
      if (row.ok()) manifest.codec_spec = CodeParams(alpha, s, p).name();
    } else if (row.tag() == "block_size") {
      row >> manifest.block_size;
    } else if (row.tag() == "blocks") {
      row >> manifest.blocks;
    } else if (row.tag() == "file") {
      FileEntry entry;
      std::string hex_name;
      row >> hex_name >> entry.first_block >> entry.bytes;
      if (row.ok()) entry.name = hex_decode(hex_name);
      manifest.files.push_back(std::move(entry));
    } else if (v2 && row.tag() == "end") {
      std::size_t count = 0;
      row >> count;
      AEC_CHECK_MSG(row.ok() && count == manifest.files.size(),
                    "manifest: end marker expects "
                        << count << " files, found " << manifest.files.size()
                        << " (truncated or corrupt manifest)");
      reader.mark_end();
    } else {
      AEC_CHECK_MSG(false, "manifest: unknown tag '" << row.tag() << "'");
    }
  }
  AEC_CHECK_MSG(!v2 || reader.saw_end(),
                "manifest: missing end marker (truncated manifest)");
  AEC_CHECK_MSG(!manifest.codec_spec.empty() && manifest.block_size > 0,
                "manifest: missing codec/block_size fields");

  std::unordered_set<std::string> names;
  for (const FileEntry& entry : manifest.files) {
    AEC_CHECK_MSG(names.insert(entry.name).second,
                  "manifest: duplicate file name '" << entry.name << "'");
    const std::uint64_t count =
        std::max<std::uint64_t>(1, entry.block_count(manifest.block_size));
    AEC_CHECK_MSG(entry.first_block >= 1 &&
                      static_cast<std::uint64_t>(entry.first_block) - 1 +
                              count <=
                          manifest.blocks,
                  "manifest: file '" << entry.name
                                     << "' lies outside the block range "
                                        "(truncated or corrupt manifest)");
  }
  return manifest;
}

}  // namespace

// --- ReadGate ---------------------------------------------------------------

ReadGate::Lease ReadGate::enter() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] { return !exclusive_ && exclusive_waiting_ == 0; });
  ++leases_;
  return Lease(this);
}

void ReadGate::leave() {
  std::lock_guard lock(mu_);
  if (--leases_ == 0) cv_.notify_all();
}

void ReadGate::lock() {
  std::unique_lock lock(mu_);
  ++exclusive_waiting_;
  cv_.wait(lock, [this] { return !exclusive_ && leases_ == 0; });
  --exclusive_waiting_;
  exclusive_ = true;
}

void ReadGate::unlock() {
  {
    std::lock_guard lock(mu_);
    exclusive_ = false;
  }
  cv_.notify_all();
}

// --- FileWriter -------------------------------------------------------------

FileWriter::FileWriter(Archive* archive, std::string name)
    : archive_(archive),
      name_(std::move(name)),
      first_block_(static_cast<NodeIndex>(archive->blocks()) + 1) {
  partial_.reserve(archive->block_size());
}

FileWriter::FileWriter(FileWriter&& other) noexcept
    : archive_(other.archive_),
      name_(std::move(other.name_)),
      first_block_(other.first_block_),
      bytes_(other.bytes_),
      ready_(std::move(other.ready_)),
      partial_(std::move(other.partial_)),
      failed_(other.failed_) {
  other.archive_ = nullptr;
}

FileWriter::~FileWriter() {
  if (archive_ != nullptr) archive_->writer_open_ = false;  // abandoned
}

void FileWriter::write(BytesView chunk) {
  AEC_CHECK_MSG(archive_ != nullptr, "write() on a closed FileWriter");
  AEC_CHECK_MSG(!failed_, "write() on a FileWriter whose append failed");
  const std::size_t block_size = archive_->block_size();
  bytes_ += chunk.size();
  while (!chunk.empty()) {
    if (partial_.empty() && chunk.size() >= block_size) {
      // Block-aligned fast path: seal straight from the caller's chunk.
      ready_.emplace_back(chunk.begin(),
                          chunk.begin() + static_cast<std::ptrdiff_t>(
                                              block_size));
      chunk = chunk.subspan(block_size);
      continue;
    }
    const std::size_t take =
        std::min(block_size - partial_.size(), chunk.size());
    partial_.insert(partial_.end(), chunk.begin(),
                    chunk.begin() + static_cast<std::ptrdiff_t>(take));
    chunk = chunk.subspan(take);
    if (partial_.size() == block_size) {
      ready_.push_back(std::move(partial_));
      partial_ = Bytes();
      partial_.reserve(block_size);
    }
  }
  flush_windows();
}

std::vector<Bytes> FileWriter::take_ready(std::size_t count) {
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    blocks.push_back(std::move(ready_.front()));
    ready_.pop_front();
  }
  return blocks;
}

void FileWriter::append(const std::vector<Bytes>& blocks) {
  try {
    archive_->session_->append(blocks);
  } catch (...) {
    // The blocks have left ready_ and the session did not advance: the
    // file now has a hole, so no part of it may be committed.
    failed_ = true;
    throw;
  }
  // The census covers every appended block, and margins of earlier
  // blocks can change when a missing parity's head edge lands on newly
  // appended nodes — O(damage) catch-up.
  archive_->health_.grow_to(archive_->session_->size());
}

void FileWriter::flush_windows() {
  const std::size_t window_blocks =
      archive_->engine().ingest_window_blocks();
  while (ready_.size() >= window_blocks) append(take_ready(window_blocks));
}

const FileEntry& FileWriter::close() {
  AEC_CHECK_MSG(archive_ != nullptr, "close() on a closed FileWriter");
  AEC_CHECK_MSG(!failed_, "close() on a FileWriter whose append failed");
  Archive& archive = *archive_;

  // Seal the tail: the remaining whole blocks, then a zero-padded final
  // block. Empty files still occupy one (all-zero) block.
  std::vector<Bytes> blocks = take_ready(ready_.size());
  if (!partial_.empty() || bytes_ == 0) {
    Bytes tail(archive.block_size(), 0);
    std::copy(partial_.begin(), partial_.end(), tail.begin());
    blocks.push_back(std::move(tail));
  }
  if (!blocks.empty()) append(blocks);
  partial_.clear();
  // Queued writes land before the manifest names the file, so a process
  // that dies after the commit leaves the file's blocks in their files.
  archive.store_->flush();

  FileEntry entry;
  entry.name = name_;
  entry.first_block = first_block_;
  entry.bytes = bytes_;
  {
    std::unique_lock lock(archive.files_mu_);
    archive.file_index_.emplace(entry.name, archive.files_.size());
    archive.files_.push_back(std::move(entry));
  }
  archive.writer_open_ = false;
  archive_ = nullptr;
  archive.save_manifest();
  // Only the writer's thread appends to files_, so this element stays put
  // until it commits the next file.
  return archive.files_.back();
}

// --- FileReader -------------------------------------------------------------

FileReader::FileReader(Archive* archive, const FileEntry& entry,
                       std::size_t window)
    : name_(entry.name),
      bytes_(entry.bytes),
      lease_(archive->read_gate_.enter()) {
  if (window == 0) window = CodecSession::kReadWindowBlocks;
  chunk_bytes_ = window * archive->block_size();
  // Empty files still occupy one (all-zero) block, and reading it is
  // what distinguishes "empty" from "irrecoverably damaged".
  stream_ = archive->session_->open_stream(
      entry.first_block,
      std::max<std::uint64_t>(1, entry.block_count(archive->block_size())),
      window);
}

bool FileReader::next_block() {
  Block block = stream_->next();
  if (!block) {
    failed_ = true;  // irrecoverable
    return false;
  }
  held_.push_back(std::move(block));
  block_pos_ = 0;
  return true;
}

std::optional<std::span<const BytesView>> FileReader::read_views(
    std::size_t max_bytes) {
  AEC_CHECK_MSG(stream_ != nullptr, "read on a moved-from FileReader");
  if (failed_) return std::nullopt;
  // The last call's views are spent: keep only the block being drained.
  if (held_.size() > 1) held_.erase(held_.begin(), held_.end() - 1);
  views_.clear();
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_bytes, bytes_ - delivered_));
  std::size_t got = 0;
  while (got < want) {
    if ((held_.empty() || block_pos_ == held_.back().size()) && !next_block())
      return std::nullopt;
    const Block& block = held_.back();
    const std::size_t n = std::min(want - got, block.size() - block_pos_);
    views_.emplace_back(block.data() + block_pos_, n);
    block_pos_ += n;
    got += n;
  }
  delivered_ += got;
  // The zero-padded tail past the last byte is trimmed, but a block
  // holding no file byte at all (an empty file's) is still read.
  if (delivered_ == bytes_)
    while (!stream_->exhausted())
      if (!next_block()) return std::nullopt;
  return std::span<const BytesView>(views_);
}

std::optional<std::size_t> FileReader::read_into(Bytes& out,
                                                 std::size_t max_bytes) {
  // One window of views at a time, so a whole-file read holds one
  // window of blocks besides `out`, not the file twice.
  std::size_t appended = 0;
  do {
    const std::optional<std::span<const BytesView>> views =
        read_views(std::min(max_bytes - appended, chunk_bytes_));
    if (!views) return std::nullopt;
    if (views->empty()) break;  // EOF
    for (const BytesView view : *views) {
      out.insert(out.end(), view.begin(), view.end());
      appended += view.size();
    }
  } while (appended < max_bytes);
  return appended;
}

std::optional<BytesView> FileReader::next_chunk() {
  AEC_CHECK_MSG(stream_ != nullptr, "read on a moved-from FileReader");
  obs::TraceSpan span("read.window");  // a0 = blocks, a1 = window
  const std::uint64_t consumed = stream_->consumed();
  buffer_.clear();
  const std::optional<std::size_t> n = read_into(buffer_, chunk_bytes_);
  span.set_args(stream_->consumed() - consumed, stream_->window());
  if (!n) return std::nullopt;
  return BytesView(buffer_.data(), *n);
}

// --- Archive ----------------------------------------------------------------

Archive::Archive(fs::path root, std::shared_ptr<const Codec> codec,
                 std::string store_spec, std::size_t block_size,
                 std::uint64_t resume_count, std::vector<FileEntry> files,
                 std::shared_ptr<Engine> engine)
    : root_(std::move(root)),
      codec_(std::move(codec)),
      store_spec_(std::move(store_spec)),
      block_size_(block_size),
      engine_(engine ? std::move(engine) : Engine::serial()),
      files_(std::move(files)) {
  // parse_manifest already rejected duplicate names.
  for (std::size_t f = 0; f < files_.size(); ++f)
    file_index_.emplace(files_[f].name, f);
  store_ = make_store(store_spec_, root_);
  cluster_ = dynamic_cast<cluster::ClusterStore*>(store_.get());
  // Observe before the session touches the store, so every mutation
  // (including resume-time tail healing) reaches the census.
  store_->set_observer(&health_);
  session_ = engine_->open_session(codec_, store_.get(), block_size_,
                                   resume_count);
  // An AE census scores margins over its lattice; striped codecs keep
  // their missing keys and damage counts only. Then reseed it from
  // authoritative store contents: damage inflicted while the archive was
  // closed predates the observer. A fresh clean-close sidecar replays
  // the missing set directly; otherwise one O(lattice) walk at open buys
  // O(damage) scrubs afterwards.
  if (const auto* ae = dynamic_cast<const AeCodec*>(codec_.get()))
    health_.configure_lattice(ae->params(), session_->size());
  opened_from_sidecar_ = load_availability_sidecar();
  if (!opened_from_sidecar_) seed_census();
}

Archive::~Archive() {
  try {
    save_availability_sidecar();
  } catch (...) {
    // Best effort: no sidecar just means the next open pays the full
    // seeding walk.
  }
}

void Archive::seed_census() {
  session_->for_each_expected_key([&](const BlockKey& key) {
    if (!store_->contains(key)) health_.on_block(key, false);
  });
}

std::unique_ptr<Archive> Archive::create(fs::path root,
                                         const std::string& codec_spec,
                                         std::size_t block_size,
                                         std::shared_ptr<Engine> engine,
                                         const std::string& store_spec) {
  AEC_CHECK_MSG(!fs::exists(root / "manifest.txt"),
                "archive already exists at " << root.string());
  AEC_CHECK_MSG(block_size > 0, "block size must be positive");
  std::shared_ptr<const Codec> codec = make_codec(codec_spec);
  std::string resolved_store = store_spec.empty() ? "file" : store_spec;
  // Fail before touching the disk where possible: syntax and family must
  // resolve here; factory-level failures (e.g. a bad shard count) are
  // caught below and the root we created is removed again.
  const StoreSpec parsed_store = parse_store_spec(resolved_store);
  AEC_CHECK_MSG(StoreRegistry::instance().has_family(parsed_store.family),
                "unknown store family '" << parsed_store.family << "' in '"
                                         << resolved_store << "'");
  const bool root_existed = fs::exists(root);
  fs::create_directories(root);
  std::unique_ptr<Archive> archive;
  try {
    archive = std::unique_ptr<Archive>(
        new Archive(root, std::move(codec), std::move(resolved_store),
                    block_size, 0, {}, std::move(engine)));
  } catch (...) {
    if (!root_existed) {
      std::error_code ec;
      fs::remove_all(root, ec);  // undo our own mkdir, best effort
    }
    throw;
  }
  archive->save_manifest();
  return archive;
}

std::unique_ptr<Archive> Archive::open(fs::path root,
                                       std::shared_ptr<Engine> engine) {
  std::ifstream in(root / "manifest.txt");
  AEC_CHECK_MSG(in.good(),
                "no archive manifest at " << (root / "manifest.txt").string());
  ParsedManifest manifest = parse_manifest(in);
  std::shared_ptr<const Codec> codec = make_codec(manifest.codec_spec);
  return std::unique_ptr<Archive>(new Archive(
      std::move(root), std::move(codec), std::move(manifest.store_spec),
      manifest.block_size, manifest.blocks, std::move(manifest.files),
      std::move(engine)));
}

const CodeParams& Archive::params() const {
  const auto* ae = dynamic_cast<const AeCodec*>(codec_.get());
  AEC_CHECK_MSG(ae != nullptr,
                "params(): codec " << codec_->id() << " is not AE");
  return ae->params();
}

void Archive::save_manifest() const {
  util::TaggedWriter out("aec-archive v2");
  out.row("codec", codec_->id());
  out.row("store", store_spec_);
  out.row("block_size", block_size_);
  out.row("blocks", blocks());
  {
    std::shared_lock lock(files_mu_);
    for (const FileEntry& entry : files_)
      out.row("file", hex_encode(entry.name), entry.first_block, entry.bytes);
    out.row("end", files_.size());
  }
  out.write_atomic(root_ / "manifest.txt");
}

FileWriter Archive::begin_file(const std::string& name) {
  AEC_CHECK_MSG(!writer_open_,
                "begin_file: another FileWriter is open on this archive");
  // Ingest while a cluster node is down would stage the node's share of
  // the new blocks in volatile memory and report success — silent data
  // loss at process exit. Repair writes may stage; new content may not.
  AEC_CHECK_MSG(cluster_ == nullptr || !cluster_->any_node_down(),
                "begin_file: archive is degraded (a cluster node is "
                "down); heal or rebuild it before ingesting new files");
  AEC_CHECK_MSG(!find_file(name).has_value(),
                "file '" << name << "' already archived");
  writer_open_ = true;
  return FileWriter(this, name);
}

const FileEntry& Archive::add_file(const std::string& name,
                                   BytesView content) {
  FileWriter writer = begin_file(name);
  // Window-sized slices: the writer's pending buffer never duplicates
  // more than one window of the (caller-owned) content.
  const std::size_t window =
      engine_->ingest_window_blocks() * block_size_;
  for (std::size_t offset = 0; offset < content.size(); offset += window)
    writer.write(content.subspan(offset,
                                 std::min(window, content.size() - offset)));
  return writer.close();
}

std::vector<FileEntry> Archive::files() const {
  std::shared_lock lock(files_mu_);
  return files_;
}

std::optional<FileEntry> Archive::find_file(const std::string& name) const {
  std::shared_lock lock(files_mu_);
  const auto it = file_index_.find(name);
  if (it == file_index_.end()) return std::nullopt;
  return files_[it->second];
}

std::optional<FileReader> Archive::try_open_reader(const std::string& name,
                                                   std::size_t window) {
  const std::optional<FileEntry> entry = find_file(name);
  if (!entry) return std::nullopt;
  return FileReader(this, *entry, window);
}

FileReader Archive::open_reader(const std::string& name, std::size_t window) {
  std::optional<FileReader> reader = try_open_reader(name, window);
  AEC_CHECK_MSG(reader.has_value(),
                "open_reader: no archived file named '" << name << "'");
  return std::move(*reader);
}

std::optional<Bytes> Archive::read_file(const std::string& name) {
  std::optional<FileReader> reader = try_open_reader(name);
  if (!reader) return std::nullopt;
  Bytes content;
  const auto bytes = static_cast<std::size_t>(reader->size_bytes());
  content.reserve(bytes);
  if (!reader->read_into(content, bytes)) return std::nullopt;  // irrecoverable
  return content;
}

ScrubReport Archive::scrub() {
  std::lock_guard exclusive(read_gate_);
  ScrubReport report;
  if (blocks() == 0) return report;
  report.repair = session_->repair_all(health_.missing_keys());
  const IntegrityReport integrity = session_->verify_integrity();
  report.inconsistent_parities = integrity.inconsistent_parities;
  report.suspect_nodes = integrity.suspect_nodes;
  // Repaired blocks may still sit in a write-behind queue; land them so
  // a scrub that reports success has its repairs on the backing medium.
  store_->flush();
  return report;
}

std::uint64_t Archive::missing_blocks() const {
  // The census's missing keys this archive actually expects (erased
  // orphans past the tail don't count).
  const std::vector<BlockKey> keys = health_.missing_keys();
  return static_cast<std::uint64_t>(
      std::count_if(keys.begin(), keys.end(), [&](const BlockKey& key) {
        return session_->is_expected_key(key);
      }));
}

std::vector<AvailabilityClassSummary> Archive::availability_summary() const {
  // Fixed buckets: 0 = data, 1 + class = parity of that strand class —
  // counter bumps only, no per-key allocation on the O(lattice) walk.
  std::array<std::uint64_t, 4> expected{};
  std::array<std::uint64_t, 4> missing{};
  const auto bucket_of = [](const BlockKey& key) -> std::size_t {
    return key.is_data() ? 0 : 1 + static_cast<std::size_t>(key.cls);
  };
  // Expected counts are a metadata walk (no store I/O); missing counts
  // come straight from the census.
  session_->for_each_expected_key(
      [&](const BlockKey& key) { ++expected[bucket_of(key)]; });
  for (const BlockKey& key : health_.missing_keys())
    if (session_->is_expected_key(key)) ++missing[bucket_of(key)];

  std::vector<AvailabilityClassSummary> rows;
  static constexpr std::array<const char*, 4> kLabels = {
      "data", "parity H", "parity RH", "parity LH"};
  for (std::size_t b = 0; b < kLabels.size(); ++b)
    if (expected[b] > 0) rows.push_back({kLabels[b], expected[b], missing[b]});
  return rows;
}

obs::MetricsSnapshot Archive::metrics() const {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  if (cluster_ != nullptr) {
    // Append per-node traffic as synthetic counter rows so one snapshot
    // carries both process-wide and per-node views.
    const std::vector<cluster::NodeTraffic> traffic = cluster_->traffic();
    for (std::size_t k = 0; k < traffic.size(); ++k) {
      const std::string prefix = "cluster.node" + std::to_string(k) + ".";
      const auto add_row = [&](const char* name, std::uint64_t value) {
        obs::MetricRow row;
        row.name = prefix + name;
        row.type = obs::MetricRow::Type::kCounter;
        row.value = value;
        snap.rows.push_back(std::move(row));
      };
      add_row("blocks_read", traffic[k].blocks_read);
      add_row("bytes_read", traffic[k].bytes_read);
      add_row("blocks_written", traffic[k].blocks_written);
      add_row("bytes_written", traffic[k].bytes_written);
    }
    std::sort(snap.rows.begin(), snap.rows.end(),
              [](const obs::MetricRow& a, const obs::MetricRow& b) {
                return a.name < b.name;
              });
  }
  return snap;
}

std::string Archive::stat_json(bool include_metrics) const {
  // One JSON object: spec + availability census (+ metrics snapshot when
  // asked). Shared by `aectool stat --json` and the daemon's STAT reply,
  // so both surfaces emit the identical schema.
  std::string out = "{\"schema_version\":1";
  out += ",\"codec\":\"" + json_escape(codec_->id()) + "\"";
  out += ",\"store\":\"" + json_escape(store_spec_) + "\"";
  out += ",\"block_size\":" + std::to_string(block_size_);
  out += ",\"kernel\":\"" + json_escape(selected_kernel_name()) + "\"";
  out += ",\"write_behind_queue_blocks\":" +
         std::to_string(obs::MetricsRegistry::global()
                            .gauge("store.sharded.wb_queue_blocks")
                            ->value());
  out += ",\"data_blocks\":" + std::to_string(blocks());
  {
    std::shared_lock lock(files_mu_);
    out += ",\"files\":" + std::to_string(files_.size());
  }
  out += ",\"availability\":[";
  bool first = true;
  for (const AvailabilityClassSummary& row : availability_summary()) {
    if (!first) out += ',';
    first = false;
    out += "{\"class\":\"" + json_escape(row.label) + "\"";
    out += ",\"expected\":" + std::to_string(row.expected);
    out += ",\"missing\":" + std::to_string(row.missing) + "}";
  }
  out += "],\"missing\":" + std::to_string(missing_blocks());
  // Live vulnerability telemetry (the paper's Fig. 12 metric): rollup
  // gauges plus the worst-margin blocks ranked by distance-to-
  // unrecoverable — the order a scrubber should visit them in.
  std::string health_json = health_.summary().to_json();
  health_json.pop_back();  // reopen the object to splice the ranking in
  health_json += ",\"worst\":[";
  bool hfirst = true;
  for (const obs::BlockHealth& b : health_.worst(10)) {
    if (!hfirst) health_json += ',';
    hfirst = false;
    health_json += "{\"block\":" + std::to_string(b.index) +
                   ",\"margin\":" + std::to_string(b.margin) + "}";
  }
  health_json += "]}";
  out += ",\"health\":" + health_json;
  if (include_metrics) out += ",\"metrics\":" + metrics().to_json();
  out += "}";
  return out;
}

std::uint64_t Archive::inject_damage(double fraction, std::uint64_t seed) {
  AEC_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0,
                "fraction must be in [0,1]");
  std::lock_guard exclusive(read_gate_);
  Rng rng(seed);
  std::uint64_t destroyed = 0;
  session_->for_each_expected_key([&](const BlockKey& key) {
    if (rng.bernoulli(fraction) && store_->erase(key)) ++destroyed;
  });
  return destroyed;
}

// --- availability sidecar ---------------------------------------------------
//
//   aec-availability v1
//   blocks <data blocks>        \ freshness guards: both must match the
//   present <stored blocks>     / reopened archive or the sidecar is stale
//   missing <count>
//   m d <i> | m p <H|RH|LH> <i>
//   end
//
// The sidecar is consumed (deleted) the moment it is read, and written
// again only on clean close — so it can never outlive the state it
// describes by more than one session, and a crash falls back to the
// full seeding walk.

namespace {

constexpr const char* kSidecarName = "availability.txt";

std::optional<StrandClass> parse_strand_class(const std::string& s) {
  if (s == "H") return StrandClass::kHorizontal;
  if (s == "RH") return StrandClass::kRightHanded;
  if (s == "LH") return StrandClass::kLeftHanded;
  return std::nullopt;
}

}  // namespace

bool Archive::load_availability_sidecar() {
  const fs::path path = root_ / kSidecarName;
  std::ifstream in(path);
  if (!in.good()) return false;
  // Consume-on-read: whatever happens below, this sidecar is spent.
  const auto discard = [&] {
    in.close();
    std::error_code ec;
    fs::remove(path, ec);
  };

  std::uint64_t blocks = 0;
  std::uint64_t present = 0;
  std::uint64_t missing = 0;
  bool saw_end = false;
  std::vector<BlockKey> keys;
  bool ok = true;
  // Soft error policy: a sidecar is an optimization, never authority —
  // any structural defect the shared reader throws for (malformed line,
  // content after end) just means "stale, fall back to the seeding
  // walk", not a failed open.
  try {
    util::TaggedReader reader(in, "availability sidecar");
    if (reader.header() != "aec-availability v1") {
      discard();
      return false;
    }
    util::TaggedRow row;
    while (ok && reader.next(row)) {
      if (row.tag() == "blocks") {
        row >> blocks;
      } else if (row.tag() == "present") {
        row >> present;
      } else if (row.tag() == "missing") {
        row >> missing;
      } else if (row.tag() == "m") {
        std::string kind;
        row >> kind;
        BlockKey key;
        if (kind == "d") {
          row >> key.index;
        } else if (kind == "p") {
          std::string cls;
          row >> cls >> key.index;
          const auto parsed = parse_strand_class(cls);
          if (!parsed) {
            ok = false;
            continue;
          }
          key = BlockKey{BlockKey::Kind::kParity, *parsed, key.index};
        } else {
          ok = false;
          continue;
        }
        keys.push_back(key);
      } else if (row.tag() == "end") {
        reader.mark_end();
      } else {
        ok = false;
      }
      if (!row.ok()) ok = false;
    }
    saw_end = reader.saw_end();
  } catch (const CheckError&) {
    ok = false;
  }
  discard();

  // Freshness guards: the data-block count ties the sidecar to this
  // manifest generation; the stored-block count catches any external
  // mutation while the archive was closed that changes how many blocks
  // exist (a directory scan the child stores already did at open, so
  // the comparison is free). An exactly offsetting add+remove pair is
  // indistinguishable by count — a content check would cost as much as
  // the seeding walk the sidecar exists to skip — so after manual
  // surgery on block files run reindex(), same as for open-time
  // out-of-band damage.
  if (!ok || !saw_end || keys.size() != missing ||
      blocks != session_->size() || present != store_->size())
    return false;
  for (const BlockKey& key : keys)
    if (!session_->is_expected_key(key)) return false;
  for (const BlockKey& key : keys) health_.on_block(key, false);
  return true;
}

void Archive::save_availability_sidecar() const {
  if (!fs::exists(root_)) return;
  std::vector<BlockKey> keys;
  for (const BlockKey& key : health_.missing_keys())
    if (session_->is_expected_key(key)) keys.push_back(key);
  util::TaggedWriter out("aec-availability v1");
  out.row("blocks", session_->size());
  out.row("present", store_->size());
  out.row("missing", keys.size());
  for (const BlockKey& key : keys) {
    if (key.is_data())
      out.row("m", "d", key.index);
    else
      out.row("m", "p", to_string(key.cls), key.index);
  }
  out.row("end");
  out.try_write_atomic(root_ / kSidecarName);  // best effort
}

std::uint64_t Archive::reindex() {
  std::lock_guard exclusive(read_gate_);
  store_->rescan();
  health_.clear();
  seed_census();
  return missing_blocks();
}

// --- multi-node (cluster) operations ----------------------------------------

void Archive::fail_node(std::uint32_t node) {
  AEC_CHECK_MSG(cluster_ != nullptr,
                "fail_node: store '" << store_spec_ << "' is not a cluster");
  std::lock_guard exclusive(read_gate_);
  cluster_->fail_node(node);
}

void Archive::heal_node(std::uint32_t node) {
  AEC_CHECK_MSG(cluster_ != nullptr,
                "heal_node: store '" << store_spec_ << "' is not a cluster");
  std::lock_guard exclusive(read_gate_);
  cluster_->heal_node(node);
}

RepairReport Archive::rebuild_node(std::uint32_t node) {
  AEC_CHECK_MSG(cluster_ != nullptr, "rebuild_node: store '"
                                         << store_spec_
                                         << "' is not a cluster");
  std::lock_guard exclusive(read_gate_);
  AEC_CHECK_MSG(cluster_->node_down(node),
                "rebuild_node: node " << node
                                      << " is up; fail it first (or heal "
                                         "it if its data is intact)");
  cluster_->replace_node(node);
  // The census already holds every key the node lost: fail_node
  // announced each key in the child's index missing (stale entries for
  // block files deleted behind the archive included), and a node that
  // was down at open was seeded missing from the sidecar or the seeding
  // walk.
  return session_->repair_all(health_.missing_keys());
}

}  // namespace aec::tools
