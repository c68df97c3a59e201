// Shared reader/writer for the library's line-oriented tagged text
// formats — the one implementation behind manifest.txt, cluster.txt and
// shards.txt, which each used to hand-roll the same getline/
// istringstream/tag loop with slightly different bugs.
//
// A tagged file is:
//   <header line>
//   <tag> <field> <field> …        (one row per line, space-separated)
//   …
//   end [fields]                   (optional terminator, caller-defined)
//
// TaggedReader centralizes the structural checks every format needs:
// malformed rows (an extraction that failed) throw CheckError with the
// offending line, content after a caller-declared end marker throws, and
// the header is read exactly once. Policy stays with the caller — which
// tags exist, whether an end marker is required; both readers (manifest,
// cluster.txt) let every defect fail the open.
//
// TaggedWriter buffers rows in memory and commits with write_atomic()
// (tmp file + rename, the crash-consistency idiom every call site
// already used — shards.txt gains it by switching).
#pragma once

#include <filesystem>
#include <istream>
#include <sstream>
#include <string>

namespace aec::util {

class TaggedReader;

/// One parsed row: the leading tag word plus a stream over the remaining
/// fields. Extract with operator>>; the owning TaggedReader validates
/// the extractions when it is asked for the next row (or at EOF), so a
/// short or non-numeric field surfaces as "malformed line", never as
/// silently default-initialized values. ok() is available for callers
/// that want to guard a use before that check fires.
class TaggedRow {
 public:
  const std::string& tag() const noexcept { return tag_; }
  const std::string& line() const noexcept { return line_; }

  template <class T>
  TaggedRow& operator>>(T& value) {
    fields_ >> value;
    return *this;
  }
  bool ok() const noexcept { return !fields_.fail(); }

 private:
  friend class TaggedReader;
  std::string tag_;
  std::string line_;
  std::istringstream fields_;
  bool filled_ = false;
};

/// Pull-parser over an open stream. `context` prefixes every error
/// ("manifest", "cluster state", …).
class TaggedReader {
 public:
  /// Consumes the header line (empty when the stream is empty — the
  /// caller validates it against the expected format tag).
  TaggedReader(std::istream& in, std::string context);

  const std::string& header() const noexcept { return header_; }
  const std::string& context() const noexcept { return context_; }

  /// Advances to the next non-blank row. Returns false at EOF. Before
  /// refilling (or returning false) it validates the extractions the
  /// caller performed on the previous row — a failed stream throws
  /// CheckError naming the line. Rows after mark_end() also throw.
  bool next(TaggedRow& row);

  /// Declares the terminator row seen: any later non-blank row is
  /// "content after end marker".
  void mark_end() noexcept { saw_end_ = true; }
  bool saw_end() const noexcept { return saw_end_; }

 private:
  std::istream& in_;
  std::string context_;
  std::string header_;
  bool saw_end_ = false;
};

/// Row-at-a-time builder committed via atomic rename.
class TaggedWriter {
 public:
  /// Starts the buffer with `header` + newline; an empty header makes a
  /// headerless file (shards.txt).
  explicit TaggedWriter(const std::string& header);

  /// Appends "<tag> <field> <field>…\n" (no fields = bare tag line).
  template <class... Fields>
  void row(const char* tag, const Fields&... fields) {
    out_ << tag;
    ((out_ << ' ' << fields), ...);
    out_ << '\n';
  }

  std::string text() const { return out_.str(); }

  /// Writes to `<path>.tmp` then renames over `path`. CheckError on any
  /// I/O failure.
  void write_atomic(const std::filesystem::path& path) const;

 private:
  std::ostringstream out_;
};

/// Atomic (tmp + rename) whole-file text write shared by TaggedWriter
/// and the headerless single-value markers.
void write_text_atomic(const std::filesystem::path& path,
                       const std::string& text);

}  // namespace aec::util
