#include "core/util/tagged_file.h"

#include <fstream>
#include <utility>

#include "common/check.h"

namespace aec::util {

namespace fs = std::filesystem;

TaggedReader::TaggedReader(std::istream& in, std::string context)
    : in_(in), context_(std::move(context)) {
  std::getline(in_, header_);
}

bool TaggedReader::next(TaggedRow& row) {
  // Validate the extractions the caller ran on the row we handed out
  // last time — this is the single "malformed line" check every format
  // used to repeat at the bottom of its loop.
  if (row.filled_) {
    AEC_CHECK_MSG(row.ok(),
                  context_ << ": malformed line '" << row.line_ << "'");
    row.filled_ = false;
  }
  std::string line;
  while (std::getline(in_, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag.empty()) continue;  // blank line
    AEC_CHECK_MSG(!saw_end_, context_ << ": content after end marker");
    row.tag_ = std::move(tag);
    row.line_ = std::move(line);
    row.fields_ = std::move(fields);
    row.filled_ = true;
    return true;
  }
  return false;
}

TaggedWriter::TaggedWriter(const std::string& header) {
  if (!header.empty()) out_ << header << '\n';
}

void TaggedWriter::write_atomic(const fs::path& path) const {
  write_text_atomic(path, out_.str());
}

void write_text_atomic(const fs::path& path, const std::string& text) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    AEC_CHECK_MSG(out.good(), "cannot write " << tmp.string());
    out << text;
    AEC_CHECK_MSG(out.good(), "write failed for " << tmp.string());
  }
  fs::rename(tmp, path);  // atomic-ish swap, same idiom as the manifest
}

}  // namespace aec::util
