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
// over their sockets, and it receives in place: prepare() names where
// the next recv() lands, commit() records what arrived, next() yields
// complete frames. Once a header passes its checks the frame's payload
// is allocated at its announced length, and every later receive lands
// in it directly — kernel → payload, one copy per wire byte. So a
// connection allocates its payload eagerly, bounded by `max_payload`
// (8 MiB by default) per connection, before those bytes arrive. Only
// the bytes that arrive in the same receive as their header pass
// through the parser's small staging buffer. A bad magic or an
// over-limit payload_len poisons the parser (error() == true) before
// any payload is allocated — after that the stream cannot be trusted
// and the connection must be dropped.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "common/bytes.h"

namespace aec::net {

constexpr std::uint32_t kMagic = 0x31434541;    // "AEC1" little-endian
constexpr std::uint32_t kMagicV2 = 0x32434541;  // "AEC2" little-endian
constexpr std::size_t kHeaderSize = 20;
constexpr std::size_t kHeaderSizeV2 = 28;  // + u64 trace_id
/// Default payload_len bound (per frame), and so the most payload a
/// connection's parser allocates ahead of its bytes arriving. PUT
/// chunks and GET stream chunks are sized well below this by both
/// built-in ends.
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
  kCheckFailed = 4,   // a library CheckError: its message() only; the
                      // expression and source line go to the log
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

/// Writes a frame header announcing `payload_len` payload bytes to
/// out[0, header_size(trace_id)); the sender puts exactly that many
/// payload bytes right behind it (the client's PUT_CHUNKs are produced
/// behind room left for their header this way, and aecd sends a
/// GET_DATA header and its payload's views in one gathered send).
void write_header(std::uint8_t* out, std::uint16_t op,
                  std::uint64_t request_id, std::uint64_t trace_id,
                  std::size_t payload_len) noexcept;

/// Appends only a frame header announcing `payload_len` payload bytes;
/// the caller appends exactly that many right behind it (encode_frame
/// does).
void encode_header(std::uint16_t op, std::uint64_t request_id,
                   std::uint64_t trace_id, std::size_t payload_len,
                   Bytes& out);

/// Appends the encoded frame to `out` (header + payload).
void encode_frame(const Frame& frame, Bytes& out);
Bytes encode_frame(const Frame& frame);

/// Most bytes either built-in end lets one receive land in a payload.
constexpr std::size_t kMaxRecvBytes = 1u << 20;

/// Incremental deframer over an arbitrary byte-chunk arrival order that
/// receives in place (see the file comment). Each receive is
///
///   const auto into = parser.prepare(max);
///   n = recv(fd, into.data(), into.size());
///   parser.commit(n);
///   while (auto frame = parser.next()) ...
class FrameParser {
 public:
  /// Staging room for the receives made between payloads: several small
  /// frames can arrive in one receive, and the payload bytes that come
  /// with a header are copied out of it once.
  static constexpr std::size_t kStageBytes = 4096;

  explicit FrameParser(std::size_t max_payload = kDefaultMaxPayload);

  /// Where the next receive lands, at most `max` bytes: the rest of the
  /// payload being received, else the staging buffer. Empty only for
  /// `max` 0 or once the parser is poisoned.
  std::span<std::uint8_t> prepare(std::size_t max);

  /// The first `n` bytes of the last prepare() span hold stream bytes.
  void commit(std::size_t n);

  /// Copies `bytes` in through prepare()/commit() (in-memory streams).
  void feed(BytesView bytes);

  /// One complete frame, or nullopt when more bytes are needed or the
  /// parser is poisoned. Frames that arrived before a violation are
  /// still returned.
  std::optional<Frame> next();

  /// Wire bytes of the frame next() last returned: its real header
  /// (AEC1 20, AEC2 28 — whatever its trace id) plus its payload.
  std::size_t frame_bytes() const noexcept { return frame_bytes_; }

  /// True once the stream violated framing (bad magic / oversized
  /// payload). The parser stays poisoned; drop the connection.
  bool error() const noexcept { return error_; }
  const std::string& error_text() const noexcept { return error_text_; }

  /// Bytes committed but not yet returned as part of a frame.
  std::size_t buffered() const noexcept { return buffered_; }
  std::size_t max_payload() const noexcept { return max_payload_; }

 private:
  /// Opens the next frame from the staged bytes while none is open:
  /// checks its header, allocates its payload and moves the staged part
  /// of it in.
  void open_staged_frame();

  std::size_t max_payload_;
  /// Received, unparsed bytes are stage_[stage_pos_, stage_end_). It
  /// grows past kStageBytes only while a complete frame waits for next().
  Bytes stage_;
  std::size_t stage_pos_ = 0;
  std::size_t stage_end_ = 0;
  Frame frame_;                   // the frame being received
  std::size_t frame_header_ = 0;  // its header size; 0 = none open
  std::size_t filled_ = 0;        // payload bytes received so far
  std::size_t prepared_ = 0;      // size of the last prepare() span
  std::size_t frame_bytes_ = 0;
  std::size_t buffered_ = 0;
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
