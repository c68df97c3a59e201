// Wire-format robustness: framing round-trips under arbitrary chunking,
// in-place receives (prepare/commit) deliver every frame byte-equal,
// malformed/oversized input poisons the parser instead of crashing, and
// payload decode failures are typed exceptions.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

namespace aec::net {
namespace {

TEST(Protocol, OpNamesAndRequestPredicate) {
  EXPECT_TRUE(is_request_op(static_cast<std::uint16_t>(Op::kPing)));
  EXPECT_TRUE(is_request_op(static_cast<std::uint16_t>(Op::kPutChunk)));
  EXPECT_TRUE(is_request_op(static_cast<std::uint16_t>(Op::kNodeRebuild)));
  EXPECT_FALSE(is_request_op(static_cast<std::uint16_t>(Op::kReply)));
  EXPECT_FALSE(is_request_op(static_cast<std::uint16_t>(Op::kError)));
  EXPECT_FALSE(is_request_op(0x7777));
  EXPECT_STREQ(op_name(static_cast<std::uint16_t>(Op::kGetFile)),
               "get_file");
  EXPECT_STREQ(op_name(0x7777), "unknown");
  EXPECT_STREQ(to_string(ErrorCode::kBusy), "busy");
}

TEST(Protocol, EncodeDecodeSingleFrame) {
  Frame frame{static_cast<std::uint16_t>(Op::kStat), 42, {1, 2, 3}};
  const Bytes wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kHeaderSize + 3);

  FrameParser parser;
  parser.feed(wire);
  const auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, frame.op);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->payload, frame.payload);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.error());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Protocol, FrameRoundTripPropertyUnderArbitraryChunking) {
  // Many frames with random ops/ids/payloads, concatenated, then fed to
  // the parser in random-sized slices: every frame must come back
  // intact, in order, regardless of how the stream is cut.
  std::mt19937_64 rng(0xAEC1);
  std::vector<Frame> sent;
  Bytes wire;
  for (int i = 0; i < 64; ++i) {
    Frame frame;
    frame.op = static_cast<std::uint16_t>(rng() % 0x120);
    frame.request_id = rng();
    frame.payload.resize(rng() % 600);
    for (auto& b : frame.payload)
      b = static_cast<std::uint8_t>(rng());
    encode_frame(frame, wire);
    sent.push_back(std::move(frame));
  }

  FrameParser parser;
  std::vector<Frame> received;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 97, wire.size() - pos);
    parser.feed(BytesView(wire.data() + pos, n));
    pos += n;
    while (auto frame = parser.next()) received.push_back(std::move(*frame));
  }
  ASSERT_FALSE(parser.error());
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].op, sent[i].op);
    EXPECT_EQ(received[i].request_id, sent[i].request_id);
    EXPECT_EQ(received[i].payload, sent[i].payload);
  }
}

TEST(Protocol, BadMagicPoisonsParser) {
  FrameParser parser;
  const Bytes garbage(kHeaderSize, 0x5A);
  parser.feed(garbage);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_NE(parser.error_text().find("magic"), std::string::npos);
  // Poisoned for good: even a valid frame afterwards yields nothing.
  parser.feed(encode_frame(Frame{1, 1, {}}));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Protocol, OversizedPayloadPoisonsParser) {
  FrameParser parser(/*max_payload=*/1024);
  Frame frame{1, 1, Bytes(2048, 0xAB)};
  parser.feed(encode_frame(frame));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_NE(parser.error_text().find("exceeds"), std::string::npos);
}

TEST(Protocol, TruncatedFrameWaitsForMoreBytes) {
  const Bytes wire = encode_frame(Frame{2, 7, Bytes(100, 1)});
  FrameParser parser;
  parser.feed(BytesView(wire.data(), wire.size() - 1));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.error());  // incomplete ≠ malformed
  parser.feed(BytesView(wire.data() + wire.size() - 1, 1));
  ASSERT_TRUE(parser.next().has_value());
}

TEST(Protocol, PayloadWriterReaderRoundTrip) {
  PayloadWriter w;
  w.u8(7);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello \xE2\x9C\x93");
  const Bytes raw_tail = {9, 8, 7};
  w.raw(raw_tail);
  const Bytes payload = w.take();

  PayloadReader r(payload);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str(), "hello \xE2\x9C\x93");
  const BytesView rest = r.rest();
  EXPECT_EQ(Bytes(rest.begin(), rest.end()), raw_tail);
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Protocol, PayloadReaderThrowsOnTruncation) {
  const Bytes short_payload = {1, 2};
  PayloadReader r(short_payload);
  EXPECT_THROW(r.u32(), ProtocolError);
}

TEST(Protocol, PayloadReaderThrowsOnTruncatedString) {
  PayloadWriter w;
  w.u32(1000);  // string length prefix with no bytes behind it
  const Bytes payload = w.take();
  PayloadReader r(payload);
  EXPECT_THROW(r.str(), ProtocolError);
}

TEST(Protocol, PayloadReaderThrowsOnTrailingBytes) {
  const Bytes payload = {1, 2, 3};
  PayloadReader r(payload);
  r.u8();
  EXPECT_THROW(r.expect_done(), ProtocolError);
}

// --- trace id / AEC2 interop ------------------------------------------------

TEST(Protocol, UntracedFrameEncodesAsV1) {
  // trace_id 0 must stay byte-identical to the pre-trace wire format:
  // an old parser keeps working against an untraced new client.
  Frame frame{static_cast<std::uint16_t>(Op::kPing), 9, {1, 2}};
  const Bytes wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kHeaderSize + 2);
  EXPECT_EQ(wire[0], 0x41);  // "AEC1"
  EXPECT_EQ(wire[3], 0x31);
}

TEST(Protocol, TracedFrameRoundTripsAsV2) {
  Frame frame{static_cast<std::uint16_t>(Op::kStat), 42, {7, 8, 9}};
  frame.trace_id = 0xFEEDFACECAFEBEEFull;
  const Bytes wire = encode_frame(frame);
  ASSERT_EQ(wire.size(), kHeaderSizeV2 + 3);
  EXPECT_EQ(wire[3], 0x32);  // "AEC2"

  FrameParser parser;
  parser.feed(wire);
  const auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, frame.op);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->trace_id, 0xFEEDFACECAFEBEEFull);
  EXPECT_EQ(decoded->payload, frame.payload);
  EXPECT_FALSE(parser.error());
}

TEST(Protocol, MixedV1V2StreamParsesPerFrame) {
  // The magic selects the header version per frame: a traced PUT's
  // frames interleave with untraced traffic on one connection.
  std::mt19937_64 rng(0xAEC2);
  std::vector<Frame> sent;
  Bytes wire;
  for (int i = 0; i < 48; ++i) {
    Frame frame;
    frame.op = static_cast<std::uint16_t>(rng() % 0x120);
    frame.request_id = rng();
    frame.trace_id = (i % 3 == 0) ? rng() | 1 : 0;  // mix, never-zero when set
    frame.payload.resize(rng() % 200);
    for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng());
    encode_frame(frame, wire);
    sent.push_back(std::move(frame));
  }
  FrameParser parser;
  std::size_t off = 0;
  std::size_t next = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 37,
                                                wire.size() - off);
    parser.feed(BytesView(wire.data() + off, n));
    off += n;
    while (const auto frame = parser.next()) {
      ASSERT_LT(next, sent.size());
      EXPECT_EQ(frame->op, sent[next].op);
      EXPECT_EQ(frame->request_id, sent[next].request_id);
      EXPECT_EQ(frame->trace_id, sent[next].trace_id);
      EXPECT_EQ(frame->payload, sent[next].payload);
      ++next;
    }
    ASSERT_FALSE(parser.error());
  }
  EXPECT_EQ(next, sent.size());
}

// --- in-place receive (prepare / commit) ------------------------------------

/// The wire bytes of `frame` under an AEC2 header even when its trace id
/// is 0 — a legal frame no built-in writer emits.
Bytes encode_v2(const Frame& frame) {
  Frame traced = frame;
  traced.trace_id = 1;
  Bytes wire = encode_frame(traced);
  const std::uint64_t trace = frame.trace_id;
  for (std::size_t i = 0; i < 8; ++i)
    wire[20 + i] = static_cast<std::uint8_t>(trace >> (8 * i));
  return wire;
}

TEST(Protocol, InPlaceReceivesDeliverEveryFrameByteEqual) {
  // Frames of 0 B up to max_payload under AEC1 and AEC2 headers, sent
  // back to back and delivered through prepare()/commit() with random
  // receive sizes of 1 B to 64 KiB: every frame comes out byte-equal,
  // with its real wire size, however the receives cut the stream —
  // including several frames arriving in one receive.
  constexpr std::size_t kMax = 96 * 1024;
  std::mt19937_64 rng(0xAEC3);
  struct Sent {
    Frame frame;
    std::size_t wire_bytes;
  };
  std::vector<Sent> sent;
  Bytes wire;
  for (int i = 0; i < 160; ++i) {
    Frame frame;
    frame.op = static_cast<std::uint16_t>(rng() % 0x120);
    frame.request_id = rng();
    std::size_t len = 0;
    switch (rng() % 5) {
      case 0: len = 0; break;
      case 1: len = rng() % 32; break;  // runs of tiny frames
      case 2: len = kMax; break;
      default: len = rng() % (kMax + 1); break;
    }
    frame.payload.resize(len);
    for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng());
    Bytes bytes;
    switch (rng() % 3) {
      case 0:  // AEC1
        bytes = encode_frame(frame);
        break;
      case 1:  // AEC2 with a trace id
        frame.trace_id = rng() | 1;
        bytes = encode_frame(frame);
        break;
      default:  // AEC2 whose trace id is 0
        bytes = encode_v2(frame);
        break;
    }
    wire.insert(wire.end(), bytes.begin(), bytes.end());
    sent.push_back({std::move(frame), bytes.size()});
  }

  FrameParser parser(kMax);
  std::size_t pos = 0;
  std::size_t next = 0;
  std::size_t multi_frame_receives = 0;
  while (pos < wire.size()) {
    const std::size_t want =
        rng() % 2 == 0 ? 1 + rng() % 64 : 1 + rng() % (64 * 1024);
    const std::span<std::uint8_t> into = parser.prepare(want);
    ASSERT_FALSE(into.empty());
    ASSERT_LE(into.size(), want);
    const std::size_t n = std::min(into.size(), wire.size() - pos);
    std::memcpy(into.data(), wire.data() + pos, n);
    parser.commit(n);
    pos += n;
    std::size_t frames = 0;
    while (auto frame = parser.next()) {
      ASSERT_LT(next, sent.size());
      const Sent& expect = sent[next++];
      EXPECT_EQ(frame->op, expect.frame.op);
      EXPECT_EQ(frame->request_id, expect.frame.request_id);
      EXPECT_EQ(frame->trace_id, expect.frame.trace_id);
      ASSERT_EQ(frame->payload, expect.frame.payload) << "frame " << next - 1;
      EXPECT_EQ(parser.frame_bytes(), expect.wire_bytes);
      ++frames;
    }
    if (frames > 1) ++multi_frame_receives;
    ASSERT_FALSE(parser.error()) << parser.error_text();
  }
  EXPECT_EQ(next, sent.size());
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_GT(multi_frame_receives, 0u);
}

TEST(Protocol, PayloadIsReceivedInPlaceOnceTheHeaderIsIn) {
  // After the header, the next receive is offered the frame's whole
  // payload (more than the staging buffer holds): the bytes land in
  // the frame itself.
  Frame frame{static_cast<std::uint16_t>(Op::kPutChunk), 5,
              Bytes(100'000, 0x3C)};
  const Bytes wire = encode_frame(frame);
  FrameParser parser;
  std::span<std::uint8_t> into = parser.prepare(kHeaderSize);
  ASSERT_EQ(into.size(), kHeaderSize);
  std::memcpy(into.data(), wire.data(), kHeaderSize);
  parser.commit(kHeaderSize);
  EXPECT_FALSE(parser.next().has_value());

  into = parser.prepare(1u << 20);
  ASSERT_EQ(into.size(), frame.payload.size());
  std::memcpy(into.data(), wire.data() + kHeaderSize, into.size());
  parser.commit(into.size());
  const auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, frame.payload);
  EXPECT_EQ(parser.frame_bytes(), wire.size());
}

TEST(Protocol, ViolationPoisonsBeforeAnyPayloadIsAllocated) {
  // The magic and the announced length are checked as soon as their 8
  // bytes arrive: the parser is poisoned with no payload to receive
  // into (prepare() is empty from then on), and a frame that arrived
  // before the violation is still delivered.
  constexpr std::size_t kMax = 1024;
  const Bytes good = encode_frame(Frame{2, 7, Bytes(10, 1)});

  Bytes oversized = encode_frame(Frame{1, 1, {}});
  for (std::size_t i = 0; i < 4; ++i)  // payload_len = kMax + 1
    oversized[4 + i] = static_cast<std::uint8_t>((kMax + 1) >> (8 * i));
  Bytes bad_magic = encode_frame(Frame{1, 1, Bytes(100, 2)});
  bad_magic[0] ^= 0xFF;

  for (const Bytes* violation : {&oversized, &bad_magic}) {
    FrameParser parser(kMax);
    Bytes wire = good;
    wire.insert(wire.end(), violation->begin(), violation->begin() + 8);
    std::span<std::uint8_t> into = parser.prepare(wire.size());
    ASSERT_EQ(into.size(), wire.size());
    std::memcpy(into.data(), wire.data(), wire.size());
    parser.commit(wire.size());

    const auto first = parser.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->payload, Bytes(10, 1));
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.error());
    EXPECT_TRUE(parser.prepare(64 * 1024).empty());
    // Poisoned for good: later bytes are refused.
    parser.feed(good);
    EXPECT_FALSE(parser.next().has_value());
  }
}

}  // namespace
}  // namespace aec::net
