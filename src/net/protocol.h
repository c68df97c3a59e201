// aecd wire protocol: length-prefixed binary frames over a byte stream.
//
// Every message is one frame — a fixed little-endian header followed by
// an opaque payload. Two header versions coexist on the wire, selected
// per frame by the magic:
//
//   offset  size  field
//        0     4  magic       0x31434541 ("AEC1") or 0x32434541 ("AEC2")
//        4     4  payload_len bytes after the header (bounded, see below)
//        8     2  opcode      Op
//       10     2  flags       reserved, writers send 0, readers ignore
//       12     8  request_id  client-chosen; echoed on every reply frame
//       20     8  trace_id    AEC2 only: cross-process correlation id
//
// AEC1 is the original 20-byte header; AEC2 appends a 64-bit trace id
// that spans one logical operation (a pipelined PUT's many frames share
// one trace id while each carries its own request id) and is adopted by
// the server's `net.request` spans, so client and daemon traces line up.
// A writer emits AEC1 whenever trace_id is 0, so untraced new clients
// stay byte-identical to old ones and old parsers never see AEC2; both
// built-in ends parse either magic per frame.
//
// Requests carry a client-chosen request id; the server echoes it on
// every frame it sends for that request, so a client (or a pipelined
// load generator) can match replies out of band. Success replies use
// kReply with an op-specific payload; GET_FILE streams as zero or more
// kGetData frames followed by one kGetEnd; failures are one kError
// frame carrying a typed ErrorCode plus human text (CheckError messages
// cross the wire verbatim).
//
// Payload scalars are little-endian fixed-width ints; strings are a u32
// length followed by raw bytes. PayloadWriter/PayloadReader implement
// exactly that, and PayloadReader throws ProtocolError on truncation or
// trailing garbage — a malformed payload is a typed error reply, never
// UB.
//
// FrameParser is the incremental deframing state machine both ends run
// over their read buffers: feed() bytes as they arrive, next() yields
// complete frames. A bad magic or an over-limit payload_len poisons the
// parser (error() == true) — after that the stream cannot be trusted
// and the connection must be dropped.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/bytes.h"

namespace aec::net {

constexpr std::uint32_t kMagic = 0x31434541;    // "AEC1" little-endian
constexpr std::uint32_t kMagicV2 = 0x32434541;  // "AEC2" little-endian
constexpr std::size_t kHeaderSize = 20;
constexpr std::size_t kHeaderSizeV2 = 28;  // + u64 trace_id
/// Default payload_len bound (per frame). PUT chunks and GET stream
/// chunks are sized well below this by both built-in ends.
constexpr std::size_t kDefaultMaxPayload = 8u << 20;

enum class Op : std::uint16_t {
  // client → server
  kPing = 0x01,
  kStat = 0x02,     // u8 include_metrics → reply: string json
  kMetrics = 0x03,  // reply: string json
  kScrub = 0x04,    // reply: u64 data_repaired, u64 parity_repaired,
                    //        u32 rounds, u64 unrecovered, u64 inconsistent
  kList = 0x05,     // reply: u32 count, then {str name, u64 bytes,
                    //        u64 first_block} per file
  kPutBegin = 0x10,  // str name → reply: empty
  kPutChunk = 0x11,  // raw bytes → reply: empty (per-chunk ack)
  kPutEnd = 0x12,    // empty → reply: u64 bytes, u64 first_block, u64 blocks
  kGetFile = 0x20,   // str name → kGetData* then kGetEnd (u64 total bytes)
  kNodeFail = 0x30,     // u32 node → reply: empty
  kNodeHeal = 0x31,     // u32 node → reply: empty
  kNodeRebuild = 0x32,  // u32 node → reply: u64 repaired, u32 rounds,
                        //            u64 unrecovered
  // server → client
  kReply = 0x80,
  kGetData = 0x81,
  kGetEnd = 0x82,
  kError = 0xFF,  // u16 ErrorCode, str message
};

enum class ErrorCode : std::uint16_t {
  kBadFrame = 1,      // framing violation (the connection is dropped)
  kUnknownOp = 2,     // opcode the server does not implement
  kBadPayload = 3,    // payload did not decode for the opcode
  kCheckFailed = 4,   // a library CheckError; message is its text
  kNotFound = 5,      // no such file / irrecoverable content
  kBusy = 6,          // admission limit reached, retry later
  kBadState = 7,      // op illegal in this session state (e.g. PUT_CHUNK
                      // without PUT_BEGIN)
  kShuttingDown = 8,  // server is draining
  kIo = 9,            // unexpected server-side failure
};

/// Request opcodes the server dispatches (false for replies/unknown).
bool is_request_op(std::uint16_t op) noexcept;
/// Stable lowercase token ("put_chunk") — metric names, logs. Unknown
/// opcodes map to "unknown".
const char* op_name(std::uint16_t op) noexcept;
const char* to_string(ErrorCode code) noexcept;

struct Frame {
  std::uint16_t op = 0;  // raw: unknown opcodes must survive parsing
  std::uint64_t request_id = 0;
  Bytes payload;
  /// 0 = untraced (and the frame encodes as AEC1 for old-peer interop).
  /// Last on purpose: `Frame{op, id, payload}` call sites predate it.
  std::uint64_t trace_id = 0;
};

/// Header bytes of a frame carrying `trace_id` (AEC1 when 0, else AEC2).
constexpr std::size_t header_size(std::uint64_t trace_id) noexcept {
  return trace_id != 0 ? kHeaderSizeV2 : kHeaderSize;
}

/// Appends only a frame header announcing `payload_len` payload bytes;
/// the caller appends exactly that many right behind it (the server
/// writes GET_DATA payloads in place this way).
void encode_header(std::uint16_t op, std::uint64_t request_id,
                   std::uint64_t trace_id, std::size_t payload_len,
                   Bytes& out);

/// Appends the encoded frame to `out` (header + payload).
void encode_frame(const Frame& frame, Bytes& out);
Bytes encode_frame(const Frame& frame);

/// Incremental deframer over an arbitrary byte-chunk arrival order.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kDefaultMaxPayload);

  /// Appends raw bytes from the stream.
  void feed(BytesView bytes);

  /// One complete frame, or nullopt when more bytes are needed or the
  /// parser is poisoned.
  std::optional<Frame> next();

  /// True once the stream violated framing (bad magic / oversized
  /// payload). The parser stays poisoned; drop the connection.
  bool error() const noexcept { return error_; }
  const std::string& error_text() const noexcept { return error_text_; }

  std::size_t buffered() const noexcept { return buffer_.size() - pos_; }
  std::size_t max_payload() const noexcept { return max_payload_; }

 private:
  std::size_t max_payload_;
  Bytes buffer_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool error_ = false;
  std::string error_text_;
};

/// Thrown by PayloadReader on truncated/trailing payload bytes. The
/// server maps it to an ErrorCode::kBadPayload reply.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void str(std::string_view s);  // u32 length + bytes
  void raw(BytesView bytes);     // unprefixed
  Bytes take() noexcept { return std::move(out_); }

 private:
  Bytes out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(BytesView payload) : in_(payload) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  /// Everything not yet consumed (raw trailing bytes).
  BytesView rest() noexcept;
  /// Throws ProtocolError unless the payload was consumed exactly.
  void expect_done() const;

 private:
  const std::uint8_t* need(std::size_t n);

  BytesView in_;
  std::size_t pos_ = 0;
};

}  // namespace aec::net
