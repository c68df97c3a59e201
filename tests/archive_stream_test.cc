// Tests for the codec-generic Archive: RS/REP archives end-to-end,
// manifest v1→v2 compatibility + hardening, streaming FileWriter ingest
// (chunked-vs-buffered byte identity, crash resume), engine sharing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/rng.h"
#include "core/codec/file_block_store.h"
#include "hooked_store.h"
#include "tools/archive.h"

namespace aec::tools {
namespace {

namespace fs = std::filesystem;

class ArchiveStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_stream_test_" + std::string(::testing::UnitTest::
                                                  GetInstance()
                                                      ->current_test_info()
                                                      ->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path dir(const std::string& name) const { return base_ / name; }

  /// Relative path → payload for every block file under <root>/{d,p}.
  static std::map<std::string, Bytes> store_fingerprint(const fs::path& root) {
    std::map<std::string, Bytes> blocks;
    for (const char* sub : {"d", "p"}) {
      const fs::path top = root / sub;
      if (!fs::exists(top)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(top)) {
        if (!entry.is_regular_file()) continue;
        std::ifstream in(entry.path(), std::ios::binary);
        Bytes payload((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
        blocks.emplace(fs::relative(entry.path(), root).string(),
                       std::move(payload));
      }
    }
    return blocks;
  }

  static std::string manifest_text(const fs::path& root) {
    std::ifstream in(root / "manifest.txt");
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void write_manifest(const fs::path& root, const std::string& text) {
    std::ofstream out(root / "manifest.txt", std::ios::trunc);
    out << text;
  }

  fs::path base_;
};

// --- RS / REP archives end-to-end -------------------------------------------

TEST_F(ArchiveStreamTest, RsArchiveRoundTripWithRepair) {
  Rng rng(1);
  const Bytes doc = rng.random_block(64 * 11 + 17);  // partial tail stripe
  const Bytes tiny = rng.random_block(5);
  {
    auto archive = Archive::create(dir("rs"), "RS(4,2)", 64);
    EXPECT_EQ(archive->codec().id(), "RS(4,2)");
    EXPECT_THROW(archive->params(), CheckError);  // not an AE archive
    archive->add_file("doc", doc);
  }
  {
    // Reopen: resumes mid-stripe (12 blocks = 3 stripes, none partial;
    // tiny adds a 13th block opening a partial stripe).
    auto archive = Archive::open(dir("rs"));
    archive->add_file("tiny", tiny);
    EXPECT_EQ(archive->blocks(), 13u);
    EXPECT_EQ(archive->missing_blocks(), 0u);
  }
  {
    // Deterministic damage, outside the archive: ≤ m = 2 per stripe.
    FileBlockStore store(dir("rs"));
    ASSERT_TRUE(store.erase(BlockKey::data(1)));
    ASSERT_TRUE(store.erase(BlockKey::data(2)));   // stripe 0: 2 data
    ASSERT_TRUE(store.erase(BlockKey::data(13)));  // partial stripe member
  }
  auto archive = Archive::open(dir("rs"));
  EXPECT_EQ(archive->missing_blocks(), 3u);

  const ScrubReport report = archive->scrub();
  EXPECT_EQ(report.repair.nodes_repaired_total, 3u);
  EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
  EXPECT_EQ(report.repair.rounds, 1u);  // stripes decode in one round
  EXPECT_EQ(report.inconsistent_parities, 0u);
  EXPECT_EQ(archive->missing_blocks(), 0u);
  EXPECT_EQ(archive->read_file("doc"), doc);
  EXPECT_EQ(archive->read_file("tiny"), tiny);
}

TEST_F(ArchiveStreamTest, RsArchiveReportsIrrecoverableStripe) {
  Rng rng(2);
  const Bytes doc = rng.random_block(64 * 8);
  Archive::create(dir("rs"), "RS(4,2)", 64)->add_file("doc", doc);

  {
    // Stripe 0 loses 3 parts — beyond m = 2.
    FileBlockStore store(dir("rs"));
    ASSERT_TRUE(store.erase(BlockKey::data(1)));
    ASSERT_TRUE(store.erase(BlockKey::data(2)));
    ASSERT_TRUE(store.erase(BlockKey::data(3)));
  }
  auto archive = Archive::open(dir("rs"));
  const ScrubReport report = archive->scrub();
  EXPECT_EQ(report.repair.nodes_unrecovered, 3u);
  EXPECT_FALSE(archive->read_file("doc").has_value());
}

TEST_F(ArchiveStreamTest, RepArchiveRoundTripWithRepair) {
  Rng rng(3);
  const Bytes doc = rng.random_block(64 * 7 + 30);
  {
    auto archive = Archive::create(dir("rep"), "REP(3)", 64);
    archive->add_file("doc", doc);
    EXPECT_EQ(archive->blocks(), 8u);
  }
  {
    // d1 and one of its two copies: still one survivor.
    FileBlockStore store(dir("rep"));
    ASSERT_TRUE(store.erase(BlockKey::data(1)));
    ASSERT_TRUE(store.erase(BlockKey{BlockKey::Kind::kParity,
                                     StrandClass::kHorizontal, 1}));
  }
  {
    auto archive = Archive::open(dir("rep"));
    const ScrubReport report = archive->scrub();
    EXPECT_EQ(report.repair.nodes_repaired_total, 1u);
    EXPECT_EQ(report.repair.edges_repaired_total, 1u);
    EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
    EXPECT_EQ(archive->read_file("doc"), doc);
  }
  {
    // All three copies of d2 gone: irrecoverable.
    FileBlockStore store(dir("rep"));
    ASSERT_TRUE(store.erase(BlockKey::data(2)));
    ASSERT_TRUE(store.erase(BlockKey{BlockKey::Kind::kParity,
                                     StrandClass::kHorizontal, 3}));
    ASSERT_TRUE(store.erase(BlockKey{BlockKey::Kind::kParity,
                                     StrandClass::kHorizontal, 4}));
  }
  auto archive = Archive::open(dir("rep"));
  EXPECT_FALSE(archive->read_file("doc").has_value());
}

// A stored block of the wrong size is refused, never built from: a
// repair that would read it fails before it computes or writes anything,
// so the lost block stays absent, and scrub fails too.
TEST_F(ArchiveStreamTest, RsRepairRefusesATruncatedPart) {
  Rng rng(5);
  const Bytes doc = rng.random_block(64 * 8);
  Archive::create(dir("rs"), "RS(4,2)", 64)->add_file("doc", doc);
  fs::remove(dir("rs") / "d" / "1");
  fs::resize_file(dir("rs") / "d" / "3", 10);
  {
    auto archive = Archive::open(dir("rs"));
    EXPECT_THROW(archive->read_file("doc"), CheckError);
    EXPECT_THROW(archive->scrub(), CheckError);
  }
  EXPECT_FALSE(fs::exists(dir("rs") / "d" / "1"));
  EXPECT_EQ(fs::file_size(dir("rs") / "d" / "3"), 10u);
}

TEST_F(ArchiveStreamTest, RepRepairRefusesATruncatedCopy) {
  Rng rng(6);
  const Bytes doc = rng.random_block(64 * 4);
  Archive::create(dir("rep"), "REP(2)", 64)->add_file("doc", doc);
  fs::remove(dir("rep") / "d" / "1");
  fs::resize_file(dir("rep") / "p" / "H" / "1", 10);
  {
    auto archive = Archive::open(dir("rep"));
    EXPECT_THROW(archive->read_file("doc"), CheckError);
    EXPECT_THROW(archive->scrub(), CheckError);
  }
  EXPECT_FALSE(fs::exists(dir("rep") / "d" / "1"));
}

// --- manifest compatibility + hardening -------------------------------------

TEST_F(ArchiveStreamTest, V1ManifestRoundTripsToV2) {
  Rng rng(4);
  const Bytes doc = rng.random_block(300);
  {
    auto archive =
        Archive::create(dir("a"), CodeParams(2, 2, 5).name(), 128);
    archive->add_file("doc", doc);
  }
  // Downgrade the manifest to the v1 format by hand.
  std::istringstream v2(manifest_text(dir("a")));
  std::ostringstream v1;
  std::string line;
  while (std::getline(v2, line)) {
    if (line == "aec-archive v2")
      v1 << "aec-archive v1\n";
    else if (line.rfind("codec ", 0) == 0)
      v1 << "code 2 2 5\n";
    else if (line.rfind("store ", 0) != 0 &&  // v1 has no store spec…
             line.rfind("end ", 0) != 0)      // …and no end marker
      v1 << line << "\n";
  }
  write_manifest(dir("a"), v1.str());

  // v1 opens; params and payload intact.
  auto archive = Archive::open(dir("a"));
  EXPECT_EQ(archive->params().name(), "AE(2,2,5)");
  EXPECT_EQ(archive->codec().id(), "AE(2,2,5)");
  EXPECT_EQ(archive->read_file("doc"), doc);

  // First write upgrades to v2…
  const Bytes more = rng.random_block(50);
  archive->add_file("more", more);
  const std::string upgraded = manifest_text(dir("a"));
  EXPECT_EQ(upgraded.rfind("aec-archive v2\n", 0), 0u);
  EXPECT_NE(upgraded.find("codec AE(2,2,5)"), std::string::npos);
  EXPECT_NE(upgraded.find("end 2"), std::string::npos);

  // …and the upgraded archive still opens with everything readable.
  auto reopened = Archive::open(dir("a"));
  EXPECT_EQ(reopened->read_file("doc"), doc);
  EXPECT_EQ(reopened->read_file("more"), more);
}

TEST_F(ArchiveStreamTest, ManifestHardeningRejectsCorruption) {
  Rng rng(5);
  {
    auto archive = Archive::create(dir("a"), "AE(3,2,5)", 128);
    archive->add_file("doc", rng.random_block(700));
  }
  const std::string good = manifest_text(dir("a"));

  const auto expect_rejected = [&](const std::string& text,
                                   const char* what) {
    write_manifest(dir("a"), text);
    EXPECT_THROW(Archive::open(dir("a")), CheckError) << what;
  };

  // Truncated: end marker lost.
  std::string truncated = good;
  truncated.resize(truncated.rfind("end "));
  expect_rejected(truncated, "missing end marker");

  // Duplicate file entry (end count fixed up to match).
  {
    std::istringstream in(good);
    std::ostringstream out;
    std::string line;
    std::string file_line;
    while (std::getline(in, line)) {
      if (line.rfind("file ", 0) == 0) file_line = line;
      if (line.rfind("end ", 0) == 0) {
        out << file_line << "\n" << "end 2\n";
      } else {
        out << line << "\n";
      }
    }
    expect_rejected(out.str(), "duplicate file name");
  }

  // End marker count disagreeing with the entries.
  {
    std::string wrong = good;
    wrong.replace(wrong.rfind("end 1"), 5, "end 9");
    expect_rejected(wrong, "end count mismatch");
  }

  // Unknown tag.
  expect_rejected("aec-archive v2\ncodec AE(3,2,5)\nblock_size 128\n"
                  "blocks 0\nwat 1\nend 0\n",
                  "unknown tag");

  // Garbage numeric field.
  expect_rejected("aec-archive v2\ncodec AE(3,2,5)\nblock_size pony\n"
                  "blocks 0\nend 0\n",
                  "malformed line");

  // Missing codec.
  expect_rejected("aec-archive v2\nblock_size 128\nblocks 0\nend 0\n",
                  "missing codec");

  // File run outside the block range.
  {
    std::istringstream in(good);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("file ", 0) == 0) {
        std::istringstream row(line);
        std::string tag, hex;
        row >> tag >> hex;
        out << "file " << hex << " 9999 700\n";
      } else {
        out << line << "\n";
      }
    }
    expect_rejected(out.str(), "file outside block range");
  }

  // Unknown header.
  expect_rejected("aec-archive v9\n", "unknown header");

  // AE parameters past the bound (s, p <= 256) in either manifest
  // version; the v1 row builds its parameters without make_codec. At the
  // bound both open.
  expect_rejected("aec-archive v2\ncodec AE(3,2,257)\nblock_size 128\n"
                  "blocks 0\nend 0\n",
                  "v2 codec past the bound");
  expect_rejected("aec-archive v1\ncode 3 2 257\nblock_size 128\n"
                  "blocks 0\n",
                  "v1 code past the bound");
  write_manifest(dir("a"), "aec-archive v2\ncodec AE(3,2,256)\n"
                           "block_size 128\nblocks 0\nend 0\n");
  EXPECT_NO_THROW(Archive::open(dir("a")));
  write_manifest(dir("a"),
                 "aec-archive v1\ncode 3 2 256\nblock_size 128\nblocks 0\n");
  EXPECT_NO_THROW(Archive::open(dir("a")));

  // The pristine manifest still opens (the helper didn't break it).
  write_manifest(dir("a"), good);
  EXPECT_NO_THROW(Archive::open(dir("a")));
}

// --- streaming FileWriter ---------------------------------------------------

TEST_F(ArchiveStreamTest, ChunkedWriterMatchesBufferedIngest) {
  Rng rng(6);
  // Larger than one serial ingest window (256 blocks × 64 B) so several
  // windows flush mid-stream, plus a ragged tail.
  const Bytes content = rng.random_block(64 * 600 + 29);

  auto buffered = Archive::create(dir("buffered"), "AE(3,2,5)", 64);
  buffered->add_file("doc", content);

  auto streamed = Archive::create(dir("streamed"), "AE(3,2,5)", 64);
  {
    FileWriter writer = streamed->begin_file("doc");
    // Awkward chunk sizes: sub-block, block-aligned, multi-block.
    std::size_t offset = 0;
    std::size_t step = 1;
    while (offset < content.size()) {
      const std::size_t len = std::min(step, content.size() - offset);
      writer.write(BytesView(content).subspan(offset, len));
      offset += len;
      step = step * 3 + 7;
    }
    EXPECT_EQ(writer.bytes_written(), content.size());
    const FileEntry& entry = writer.close();
    EXPECT_EQ(entry.bytes, content.size());
    EXPECT_EQ(entry.first_block, 1);
  }

  EXPECT_EQ(streamed->blocks(), buffered->blocks());
  EXPECT_EQ(streamed->read_file("doc"), content);
  // Byte-identity of the whole store, parities included.
  EXPECT_EQ(store_fingerprint(dir("streamed")),
            store_fingerprint(dir("buffered")));
}

TEST_F(ArchiveStreamTest, ChunkedWriterMatchesBufferedOnStripedCodec) {
  Rng rng(7);
  const Bytes content = rng.random_block(64 * 450 + 10);

  auto buffered = Archive::create(dir("buffered"), "RS(4,2)", 64);
  buffered->add_file("doc", content);

  auto streamed = Archive::create(dir("streamed"), "RS(4,2)", 64);
  FileWriter writer = streamed->begin_file("doc");
  for (std::size_t offset = 0; offset < content.size(); offset += 1000)
    writer.write(BytesView(content).subspan(
        offset, std::min<std::size_t>(1000, content.size() - offset)));
  writer.close();

  EXPECT_EQ(streamed->read_file("doc"), content);
  EXPECT_EQ(store_fingerprint(dir("streamed")),
            store_fingerprint(dir("buffered")));
}

TEST_F(ArchiveStreamTest, AbandonedWriterCrashResume) {
  Rng rng(8);
  const Bytes content = rng.random_block(64 * 600 + 5);

  auto buffered = Archive::create(dir("buffered"), "AE(3,2,5)", 64);
  buffered->add_file("doc", content);

  {
    auto archive = Archive::create(dir("crash"), "AE(3,2,5)", 64);
    FileWriter writer = archive->begin_file("doc");
    // Flush a few windows, then "crash": writer and archive destroyed
    // without close() — no manifest entry, orphan blocks on disk.
    writer.write(BytesView(content).subspan(0, 64 * 520));
  }
  {
    auto archive = Archive::open(dir("crash"));
    EXPECT_EQ(archive->blocks(), 0u);     // manifest never saw the file
    EXPECT_TRUE(archive->files().empty());
    // Retry the ingest from scratch; appends overwrite the orphans.
    FileWriter writer = archive->begin_file("doc");
    writer.write(content);
    writer.close();
    EXPECT_EQ(archive->read_file("doc"), content);
  }
  EXPECT_EQ(store_fingerprint(dir("crash")),
            store_fingerprint(dir("buffered")));
}

// Crash mid-put on a striped archive: the interrupted append re-encoded
// the partial tail stripe's parities against orphan blocks that were
// never committed. Resume must heal that stripe — no false tamper
// alarms, and a committed member lost after the crash must still repair
// to its true bytes (not a reconstruction against phantom zeros).
TEST_F(ArchiveStreamTest, StripedTailStripeSurvivesCrashMidPut) {
  Rng rng(11);
  const Bytes doc = rng.random_block(64 * 6);  // stripe 1 partial: d5, d6
  const Bytes big = rng.random_block(64 * 300);

  auto setup_crashed_archive = [&](const fs::path& root) {
    auto archive = Archive::create(root, "RS(4,2)", 64);
    archive->add_file("doc", doc);
    // Interrupted put: several windows flush (stripe 1's parities now
    // bind orphans d7, d8), then writer and archive die uncommitted.
    FileWriter writer = archive->begin_file("big");
    writer.write(big);
  };

  {  // Crash alone: reopen is clean — no phantom inconsistencies.
    setup_crashed_archive(dir("clean"));
    auto archive = Archive::open(dir("clean"));
    EXPECT_EQ(archive->blocks(), 6u);
    const ScrubReport report = archive->scrub();
    EXPECT_EQ(report.inconsistent_parities, 0u);
    EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
    EXPECT_EQ(archive->read_file("doc"), doc);
  }
  {  // Crash + post-crash loss of a committed tail-stripe member.
    setup_crashed_archive(dir("damaged"));
    {
      FileBlockStore store(dir("damaged"));
      ASSERT_TRUE(store.erase(BlockKey::data(5)));
    }
    auto archive = Archive::open(dir("damaged"));
    EXPECT_EQ(archive->read_file("doc"), doc);  // byte-exact, not phantom
    const ScrubReport report = archive->scrub();
    EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
    EXPECT_EQ(report.inconsistent_parities, 0u);
    // The healed archive keeps working: the retried put round-trips.
    archive->add_file("big", big);
    EXPECT_EQ(archive->read_file("big"), big);
    EXPECT_EQ(archive->read_file("doc"), doc);
  }
  {  // Crash + losses that defeat verification (committed d5 AND orphan
     // d8 gone: no hypothesis about the parities can be checked). The
     // archive must refuse honestly, never decode phantom bytes.
    setup_crashed_archive(dir("hopeless"));
    {
      FileBlockStore store(dir("hopeless"));
      ASSERT_TRUE(store.erase(BlockKey::data(5)));
      ASSERT_TRUE(store.erase(BlockKey::data(8)));  // orphan
    }
    auto archive = Archive::open(dir("hopeless"));
    EXPECT_FALSE(archive->read_file("doc").has_value());
    const ScrubReport report = archive->scrub();
    EXPECT_GT(report.repair.nodes_unrecovered, 0u);
  }
}

TEST_F(ArchiveStreamTest, StripedHealReadsATornOrphanAsMissing) {
  // A crash inside an append's data puts leaves an orphan cut short, and
  // the parities were never re-encoded against it. With a committed
  // member of that stripe lost as well, the reopen must still recover it
  // from the parities under the zero-tail hypothesis: the short orphan
  // reads as missing, it is neither refused nor built from.
  Rng rng(12);
  const Bytes doc = rng.random_block(64 * 6);  // stripe 1 partial: d5, d6
  Archive::create(dir("rs"), "RS(4,2)", 64)->add_file("doc", doc);
  {
    std::ofstream torn(dir("rs") / "d" / "7", std::ios::binary);
    torn.write("torn block", 10);
    const Bytes whole = rng.random_block(64);
    std::ofstream orphan(dir("rs") / "d" / "8", std::ios::binary);
    orphan.write(reinterpret_cast<const char*>(whole.data()), 64);
  }
  fs::remove(dir("rs") / "d" / "5");
  auto archive = Archive::open(dir("rs"));
  EXPECT_EQ(archive->blocks(), 6u);
  EXPECT_EQ(archive->read_file("doc"), doc);
  const ScrubReport report = archive->scrub();
  EXPECT_EQ(report.repair.nodes_unrecovered, 0u);
  EXPECT_EQ(report.inconsistent_parities, 0u);
}

TEST_F(ArchiveStreamTest, SessionOutlivesTemporaryEngine) {
  // The session must keep a shared-owned engine (and its pool) alive
  // even when the caller's only reference is a temporary.
  pipeline::ConcurrentBlockStore store;
  auto session = Engine::with_threads(2)->open_session(
      make_codec("AE(3,2,5)"), &store, 64);
  Rng rng(12);
  const Bytes run = rng.random_block(64 * 50);
  session->append(run);  // engine's pool must still be alive here
  EXPECT_EQ(session->size(), 50u);
  EXPECT_EQ(session->open_stream(7, 1)->next(),
            BytesView(run).subspan(64 * 6, 64));
}

TEST_F(ArchiveStreamTest, SessionRejectsARunOfPartBlocksAndStoresNothing) {
  // A session appends whole blocks laid end to end. A run of any other
  // size is a CheckError naming both sizes, raised before anything
  // reaches the store, in the AE and the striped session alike.
  for (const char* spec : {"AE(3,2,5)", "RS(4,2)"}) {
    SCOPED_TRACE(spec);
    pipeline::ConcurrentBlockStore store;
    auto session =
        Engine::serial()->open_session(make_codec(spec), &store, 64);
    session->append(Bytes(64 * 3, 7));
    const std::uint64_t stored = store.size();
    for (const std::size_t bytes : {1, 63, 65, 64 * 5 + 1}) {
      try {
        session->append(Bytes(bytes, 1));
        ADD_FAILURE() << bytes << " bytes appended";
      } catch (const CheckError& e) {
        const std::string message = e.message();
        EXPECT_NE(message.find(std::to_string(bytes) + " bytes"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("64-byte"), std::string::npos) << message;
      }
    }
    session->append(Bytes{});  // no blocks: nothing to store
    EXPECT_EQ(session->size(), 3u);
    EXPECT_EQ(store.size(), stored);
  }
}

TEST_F(ArchiveStreamTest, SessionRejectsAStoreThatDoesNotLockItself) {
  // Pool tasks read and write a session's store at every thread count,
  // so a store keeping the interface's default thread_safe() == false is
  // refused up front.
  class UnlockedStore final : public BlockStore {
   public:
    void put(const BlockKey&, Bytes) override {}
    std::optional<Bytes> get_copy(const BlockKey&) const override {
      return std::nullopt;
    }
    bool contains(const BlockKey&) const override { return false; }
    bool erase(const BlockKey&) override { return false; }
    std::uint64_t size() const override { return 0; }
  } store;
  for (const char* spec : {"AE(3,2,5)", "RS(4,2)"})
    EXPECT_THROW(Engine::serial()->open_session(make_codec(spec), &store, 64),
                 CheckError)
        << spec;
}

TEST_F(ArchiveStreamTest, SessionRejectsACodecOfNoKnownFamily) {
  // open_session dispatches on the codec's type: an AeCodec or a
  // StripeCodec.
  struct NameOnlyCodec final : Codec {
    std::string id() const override { return "X(1)"; }
  };
  pipeline::ConcurrentBlockStore store;
  EXPECT_THROW(Engine::serial()->open_session(
                   std::make_shared<NameOnlyCodec>(), &store, 64),
               CheckError);
}

TEST_F(ArchiveStreamTest, WriterContractChecks) {
  Rng rng(9);
  auto archive = Archive::create(dir("a"), "AE(3,2,5)", 64);
  archive->add_file("first", rng.random_block(100));

  EXPECT_THROW(archive->begin_file("first"), CheckError);  // duplicate
  {
    FileWriter writer = archive->begin_file("doc");
    EXPECT_THROW(archive->begin_file("other"), CheckError);  // one at a time
    writer.write(rng.random_block(10));
    writer.close();
    EXPECT_THROW(writer.write(Bytes{1, 2, 3}), CheckError);  // closed
    EXPECT_THROW(writer.close(), CheckError);
  }
  // Abandoning a writer releases the slot.
  { FileWriter writer = archive->begin_file("ghost"); }
  FileWriter writer = archive->begin_file("real");
  writer.write(Bytes{42});
  writer.close();
  EXPECT_EQ(archive->files().size(), 3u);  // first, doc, real — no ghost
  EXPECT_EQ(archive->read_file("real"), Bytes{42});
}

TEST_F(ArchiveStreamTest, FailedAppendPoisonsTheWriterAndCommitsNothing) {
  // A store fails once inside the second of three 256-block windows. The
  // writer has lost that window's blocks, so close() must not commit a
  // file that reaches past the archive's blocks (which made the archive
  // refuse to reopen), and a new writer re-encodes the same positions.
  // Both codec families take the same path through FileWriter.
  for (const char* codec : {"AE(3,2,5)", "RS(4,2)"}) {
    SCOPED_TRACE(codec);
    const auto store = test::register_hooked_family("flakyarchive");
    const fs::path root = dir(std::string("a") + codec[0]);
    Rng rng(21);
    const Bytes content = rng.random_block(64 * 768);
    {
      auto archive = Archive::create(root, codec, 64, Engine::serial(),
                                     "flakyarchive");
      archive->add_file("before", rng.random_block(64 * 3));
      const std::uint64_t blocks_before = archive->blocks();
      // Fail a put inside the second window: for AE inside its strand
      // tasks (the first window is 256 · 4 puts), for RS inside the
      // re-encode that follows its 256 data puts (the first window is
      // 256 data puts and 65 stripes' 2 parities, the second window's
      // first stripe being the partial tail the failure must leave
      // consistent).
      (*store)->fail_countdown =
          codec[0] == 'A' ? 256 * 4 + 100 : 256 + 130 + 256 + 10;
      {
        FileWriter writer = archive->begin_file("f");
        EXPECT_THROW(writer.write(content), std::runtime_error);
        EXPECT_THROW(writer.write(Bytes{1}), CheckError);  // poisoned
        EXPECT_THROW(writer.close(), CheckError);          // commits nothing
      }
      EXPECT_FALSE(archive->find_file("f").has_value());
      EXPECT_EQ(archive->files().size(), 1u);
      // The first window landed; the failed one did not advance the
      // session, so the next writer starts at its positions, and the
      // redundancy of what is committed stays consistent.
      EXPECT_EQ(archive->blocks(), blocks_before + 256);
      EXPECT_EQ(archive->scrub().inconsistent_parities, 0u);
      // The manifest the failure left behind still opens.
      EXPECT_NO_THROW(Archive::open(root));
      // The slot is free again, and the retry reads back and scrubs clean.
      archive->add_file("f", content);
      EXPECT_EQ(archive->read_file("f"), content);
      EXPECT_EQ(archive->scrub().inconsistent_parities, 0u);
      EXPECT_EQ(archive->missing_blocks(), 0u);
    }
  }
}

TEST_F(ArchiveStreamTest, EmptyFileStillOccupiesOneBlock) {
  auto archive = Archive::create(dir("a"), "REP(2)", 64);
  FileWriter writer = archive->begin_file("empty");
  const FileEntry& entry = writer.close();
  EXPECT_EQ(entry.bytes, 0u);
  EXPECT_EQ(archive->blocks(), 1u);
  EXPECT_EQ(archive->read_file("empty"), Bytes{});
}

// --- engine sharing ---------------------------------------------------------

TEST_F(ArchiveStreamTest, ArchivesShareOneEngine) {
  Rng rng(10);
  const Bytes doc_a = rng.random_block(64 * 40);
  const Bytes doc_b = rng.random_block(64 * 30 + 3);

  auto engine = Engine::with_threads(2);
  auto ae = Archive::create(dir("ae"), "AE(3,2,5)", 64, engine);
  auto rs = Archive::create(dir("rs"), "RS(10,4)", 64, engine);
  ae->add_file("a", doc_a);
  rs->add_file("b", doc_b);
  EXPECT_EQ(ae->threads(), 2u);
  EXPECT_EQ(rs->threads(), 2u);
  EXPECT_EQ(ae->read_file("a"), doc_a);
  EXPECT_EQ(rs->read_file("b"), doc_b);

  // Parallel-engine bytes are identical to the serial-engine bytes.
  auto serial = Archive::create(dir("serial"), "AE(3,2,5)", 64);
  serial->add_file("a", doc_a);
  EXPECT_EQ(store_fingerprint(dir("ae")), store_fingerprint(dir("serial")));
}

}  // namespace
}  // namespace aec::tools
