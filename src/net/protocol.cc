#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace aec::net {

namespace {

void put_le(Bytes& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void store_le(std::uint8_t* p, std::uint64_t v, std::size_t bytes) noexcept {
  for (std::size_t i = 0; i < bytes; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t bytes) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

bool is_request_op(std::uint16_t op) noexcept {
  switch (static_cast<Op>(op)) {
    case Op::kPing:
    case Op::kStat:
    case Op::kMetrics:
    case Op::kScrub:
    case Op::kList:
    case Op::kPutBegin:
    case Op::kPutChunk:
    case Op::kPutEnd:
    case Op::kGetFile:
    case Op::kNodeFail:
    case Op::kNodeHeal:
    case Op::kNodeRebuild:
      return true;
    default:
      return false;
  }
}

const char* op_name(std::uint16_t op) noexcept {
  switch (static_cast<Op>(op)) {
    case Op::kPing: return "ping";
    case Op::kStat: return "stat";
    case Op::kMetrics: return "metrics";
    case Op::kScrub: return "scrub";
    case Op::kList: return "list";
    case Op::kPutBegin: return "put_begin";
    case Op::kPutChunk: return "put_chunk";
    case Op::kPutEnd: return "put_end";
    case Op::kGetFile: return "get_file";
    case Op::kNodeFail: return "node_fail";
    case Op::kNodeHeal: return "node_heal";
    case Op::kNodeRebuild: return "node_rebuild";
    case Op::kReply: return "reply";
    case Op::kGetData: return "get_data";
    case Op::kGetEnd: return "get_end";
    case Op::kError: return "error";
    default: return "unknown";
  }
}

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kBadPayload: return "bad_payload";
    case ErrorCode::kCheckFailed: return "check_failed";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kBadState: return "bad_state";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kIo: return "io";
  }
  return "unknown";
}

void write_header(std::uint8_t* out, std::uint16_t op,
                  std::uint64_t request_id, std::uint64_t trace_id,
                  std::size_t payload_len) noexcept {
  // Untraced frames keep the AEC1 header: byte-identical to pre-trace
  // writers, parseable by pre-trace readers.
  const bool v2 = trace_id != 0;
  store_le(out, v2 ? kMagicV2 : kMagic, 4);
  store_le(out + 4, payload_len, 4);
  store_le(out + 8, op, 2);
  store_le(out + 10, 0, 2);  // flags, reserved
  store_le(out + 12, request_id, 8);
  if (v2) store_le(out + 20, trace_id, 8);
}

void encode_header(std::uint16_t op, std::uint64_t request_id,
                   std::uint64_t trace_id, std::size_t payload_len,
                   Bytes& out) {
  const std::size_t at = out.size();
  out.resize(at + header_size(trace_id));
  write_header(out.data() + at, op, request_id, trace_id, payload_len);
}

void encode_frame(const Frame& frame, Bytes& out) {
  out.reserve(out.size() + header_size(frame.trace_id) +
              frame.payload.size());
  encode_header(frame.op, frame.request_id, frame.trace_id,
                frame.payload.size(), out);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

Bytes encode_frame(const Frame& frame) {
  Bytes out;
  encode_frame(frame, out);
  return out;
}

FrameParser::FrameParser(std::size_t max_payload)
    : max_payload_(max_payload), stage_(kStageBytes) {}

std::span<std::uint8_t> FrameParser::prepare(std::size_t max) {
  if (error_) return {};
  if (frame_header_ != 0 && filled_ < frame_.payload.size()) {
    // Mid-payload: the receive lands in the frame itself.
    prepared_ = std::min(max, frame_.payload.size() - filled_);
    return {frame_.payload.data() + filled_, prepared_};
  }
  if (stage_pos_ > 0) {  // drop the parsed prefix
    std::memmove(stage_.data(), stage_.data() + stage_pos_,
                 stage_end_ - stage_pos_);
    stage_end_ -= stage_pos_;
    stage_pos_ = 0;
  }
  prepared_ = std::min(max, kStageBytes);
  // A complete frame not yet taken by next() keeps the staged bytes
  // behind it unparsed, so the stage grows instead of refusing them.
  if (stage_.size() < stage_end_ + prepared_)
    stage_.resize(stage_end_ + prepared_);
  return {stage_.data() + stage_end_, prepared_};
}

void FrameParser::commit(std::size_t n) {
  AEC_CHECK_MSG(n <= prepared_, "commit(" << n << ") past the prepared "
                                          << prepared_ << " bytes");
  prepared_ = 0;
  buffered_ += n;
  if (frame_header_ != 0 && filled_ < frame_.payload.size()) {
    filled_ += n;
    return;
  }
  stage_end_ += n;
  open_staged_frame();
}

void FrameParser::feed(BytesView bytes) {
  while (!bytes.empty()) {
    const std::span<std::uint8_t> into = prepare(bytes.size());
    if (into.empty()) return;  // poisoned: drop everything
    std::memcpy(into.data(), bytes.data(), into.size());
    commit(into.size());
    bytes = bytes.subspan(into.size());
  }
}

void FrameParser::open_staged_frame() {
  if (error_ || frame_header_ != 0) return;
  const std::size_t staged = stage_end_ - stage_pos_;
  if (staged < 8) return;  // magic + payload_len decide validity
  const std::uint8_t* h = stage_.data() + stage_pos_;
  const auto magic = static_cast<std::uint32_t>(get_le(h, 4));
  if (magic != kMagic && magic != kMagicV2) {
    error_ = true;
    error_text_ = "bad frame magic";
    return;
  }
  const auto payload_len = static_cast<std::size_t>(get_le(h + 4, 4));
  if (payload_len > max_payload_) {
    error_ = true;
    error_text_ = "frame payload exceeds limit (" +
                  std::to_string(payload_len) + " > " +
                  std::to_string(max_payload_) + ")";
    return;
  }
  const std::size_t header = magic == kMagicV2 ? kHeaderSizeV2 : kHeaderSize;
  if (staged < header) return;

  frame_ = Frame{};
  frame_.op = static_cast<std::uint16_t>(get_le(h + 8, 2));
  // h + 10: flags — reserved, ignored on read.
  frame_.request_id = get_le(h + 12, 8);
  if (magic == kMagicV2) frame_.trace_id = get_le(h + 20, 8);
  frame_.payload.resize(payload_len);
  filled_ = std::min(payload_len, staged - header);
  if (filled_ > 0) std::memcpy(frame_.payload.data(), h + header, filled_);
  frame_header_ = header;
  stage_pos_ += header + filled_;
  if (stage_pos_ == stage_end_) stage_pos_ = stage_end_ = 0;
}

std::optional<Frame> FrameParser::next() {
  if (frame_header_ == 0 || filled_ < frame_.payload.size())
    return std::nullopt;
  frame_bytes_ = frame_header_ + frame_.payload.size();
  buffered_ -= frame_bytes_;
  frame_header_ = 0;
  filled_ = 0;
  std::optional<Frame> frame(std::move(frame_));
  open_staged_frame();
  return frame;
}

// --- payload encoding ---------------------------------------------------

void PayloadWriter::u8(std::uint8_t v) { put_le(out_, v, 1); }
void PayloadWriter::u16(std::uint16_t v) { put_le(out_, v, 2); }
void PayloadWriter::u32(std::uint32_t v) { put_le(out_, v, 4); }
void PayloadWriter::u64(std::uint64_t v) { put_le(out_, v, 8); }

void PayloadWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  out_.insert(out_.end(), p, p + s.size());
}

void PayloadWriter::raw(BytesView bytes) {
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

const std::uint8_t* PayloadReader::need(std::size_t n) {
  if (in_.size() - pos_ < n)
    throw ProtocolError("truncated payload: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(in_.size() - pos_));
  const std::uint8_t* p = in_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t PayloadReader::u8() {
  return static_cast<std::uint8_t>(get_le(need(1), 1));
}
std::uint16_t PayloadReader::u16() {
  return static_cast<std::uint16_t>(get_le(need(2), 2));
}
std::uint32_t PayloadReader::u32() {
  return static_cast<std::uint32_t>(get_le(need(4), 4));
}
std::uint64_t PayloadReader::u64() { return get_le(need(8), 8); }

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = need(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

BytesView PayloadReader::rest() noexcept {
  BytesView r = in_.subspan(pos_);
  pos_ = in_.size();
  return r;
}

void PayloadReader::expect_done() const {
  if (pos_ != in_.size())
    throw ProtocolError("trailing payload bytes: " +
                        std::to_string(in_.size() - pos_) + " unconsumed");
}

}  // namespace aec::net
