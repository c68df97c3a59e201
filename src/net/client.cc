#include "net/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>

#include "common/check.h"

namespace aec::net {

namespace {

/// PUT_CHUNK frames in flight before the uploader reads an ack. Must
/// stay below the server's default admission limit with headroom for
/// other clients.
constexpr std::size_t kPutPipelineWindow = 8;
/// PUT_CHUNK payload size for the streaming helpers, well below the
/// server's per-frame bound (kDefaultMaxPayload).
constexpr std::size_t kPutChunkBytes = 1u << 20;

}  // namespace

Client::OpScope::OpScope(Client& client, const char* what)
    : client_(client), span_("net.client.request") {
  if (client_.config_.trace) {
    client_.active_trace_id_ = client_.new_trace_id();
    client_.last_trace_id_ = client_.active_trace_id_;
    span_.set_request_id(client_.active_trace_id_);
  }
  span_.set_label(what);
}

Client::OpScope::~OpScope() { client_.active_trace_id_ = 0; }

std::uint64_t Client::new_trace_id() noexcept {
  // Distinct across the several Clients a test (or bench worker pool)
  // runs in one process: fold the object identity into the counter.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  std::uint64_t id = (self * 0x9E3779B97F4A7C15ull) ^ ++trace_count_;
  if (id == 0) id = 1;  // 0 means "untraced" on the wire
  return id;
}

Client::Client(ClientConfig config)
    : config_(std::move(config)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  AEC_CHECK_MSG(fd_ >= 0, "socket: " << std::strerror(errno));

  if (config_.timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = config_.timeout_ms / 1000;
    tv.tv_usec = (config_.timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  AEC_CHECK_MSG(
      ::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1,
      "bad host address '" << config_.host << "'");
  AEC_CHECK_MSG(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0,
                "connect " << config_.host << ":" << config_.port << ": "
                           << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_frame(const Frame& frame) {
  send_wire(encode_frame(frame));
}

void Client::send_wire(BytesView wire) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      AEC_CHECK_MSG(false, "send to " << config_.host << ":" << config_.port
                                      << ": " << std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

Frame Client::recv_frame() {
  for (;;) {
    if (auto frame = parser_.next()) return std::move(*frame);
    AEC_CHECK_MSG(!parser_.error(),
                  "framing error from server: " << parser_.error_text());
    // Straight into the frame's payload once its header is in.
    const std::span<std::uint8_t> into = parser_.prepare(kMaxRecvBytes);
    const ssize_t n = ::recv(fd_, into.data(), into.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      AEC_CHECK_MSG(false, "recv: " << std::strerror(errno));
    }
    AEC_CHECK_MSG(n != 0, "server closed the connection");
    parser_.commit(static_cast<std::size_t>(n));
  }
}

Frame Client::recv_reply(std::uint64_t request_id) {
  Frame frame = recv_frame();
  AEC_CHECK_MSG(frame.request_id == request_id,
                "reply for request " << frame.request_id << ", expected "
                                     << request_id);
  if (static_cast<Op>(frame.op) == Op::kError) {
    PayloadReader r(frame.payload);
    const auto code = static_cast<ErrorCode>(r.u16());
    throw RemoteError(code, r.str());
  }
  return frame;
}

Frame Client::roundtrip(Op op, Bytes payload) {
  const std::uint64_t id = next_request_id_++;
  Frame frame{static_cast<std::uint16_t>(op), id, std::move(payload)};
  frame.trace_id = active_trace_id_;
  send_frame(frame);
  return recv_reply(id);
}

void Client::ping() {
  OpScope scope(*this, "ping");
  roundtrip(Op::kPing, {});
}

std::string Client::stat_json(bool include_metrics) {
  OpScope scope(*this, "stat");
  PayloadWriter w;
  w.u8(include_metrics ? 1 : 0);
  Frame reply = roundtrip(Op::kStat, w.take());
  PayloadReader r(reply.payload);
  std::string json = r.str();
  r.expect_done();
  return json;
}

std::string Client::metrics_json() {
  OpScope scope(*this, "metrics");
  Frame reply = roundtrip(Op::kMetrics, {});
  PayloadReader r(reply.payload);
  std::string json = r.str();
  r.expect_done();
  return json;
}

ScrubResult Client::scrub() {
  OpScope scope(*this, "scrub");
  Frame reply = roundtrip(Op::kScrub, {});
  PayloadReader r(reply.payload);
  ScrubResult result;
  result.data_repaired = r.u64();
  result.parity_repaired = r.u64();
  result.rounds = r.u32();
  result.unrecovered = r.u64();
  result.inconsistent_parities = r.u64();
  r.expect_done();
  return result;
}

std::vector<RemoteFileEntry> Client::list() {
  OpScope scope(*this, "list");
  Frame reply = roundtrip(Op::kList, {});
  PayloadReader r(reply.payload);
  const std::uint32_t count = r.u32();
  std::vector<RemoteFileEntry> files;
  files.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RemoteFileEntry entry;
    entry.name = r.str();
    entry.bytes = r.u64();
    entry.first_block = r.u64();
    files.push_back(std::move(entry));
  }
  r.expect_done();
  return files;
}

PutResult Client::put_stream(const std::string& name,
                             const ChunkProducer& produce) {
  // One logical op, one trace id: PUT_BEGIN, every pipelined PUT_CHUNK
  // and PUT_END all share it while each keeps its own request id. The
  // label carries the (user-supplied) archive name.
  OpScope scope(*this, "put");
  scope.set_label(name);
  {
    PayloadWriter w;
    w.str(name);
    roundtrip(Op::kPutBegin, w.take());  // fail fast (busy/duplicate/…)
  }
  std::deque<std::uint64_t> pending;  // acked in FIFO order by the server
  // Each chunk is produced behind room left for its header and sent as
  // is: one copy per PUT byte, into the kernel.
  const std::size_t header = header_size(active_trace_id_);
  const std::size_t cap = kPutChunkBytes;
  Bytes wire(header + cap);
  for (;;) {
    const std::size_t n = produce(wire.data() + header, cap);
    if (n == 0) break;
    AEC_CHECK_MSG(n <= cap, "chunk producer wrote " << n << " bytes into "
                                                    << cap);
    const std::uint64_t id = next_request_id_++;
    write_header(wire.data(), static_cast<std::uint16_t>(Op::kPutChunk), id,
                 active_trace_id_, n);
    send_wire(BytesView(wire.data(), header + n));
    pending.push_back(id);
    while (pending.size() >= kPutPipelineWindow) {
      recv_reply(pending.front());
      pending.pop_front();
    }
  }
  while (!pending.empty()) {
    recv_reply(pending.front());
    pending.pop_front();
  }
  Frame reply = roundtrip(Op::kPutEnd, {});
  PayloadReader r(reply.payload);
  PutResult result;
  result.bytes = r.u64();
  result.first_block = r.u64();
  result.blocks = r.u64();
  r.expect_done();
  return result;
}

PutResult Client::put_bytes(const std::string& name, BytesView content) {
  std::size_t pos = 0;
  return put_stream(name, [&](std::uint8_t* buf, std::size_t cap) {
    const std::size_t n = std::min(cap, content.size() - pos);
    // Empty content may have a null data(), which memcpy must not see.
    if (n > 0) std::memcpy(buf, content.data() + pos, n);
    pos += n;
    return n;
  });
}

PutResult Client::put_file(const std::string& name,
                           const std::filesystem::path& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  AEC_CHECK_MSG(in != nullptr,
                "cannot open " << path.string() << ": "
                               << std::strerror(errno));
  try {
    PutResult result =
        put_stream(name, [&](std::uint8_t* buf, std::size_t cap) {
          const std::size_t n = std::fread(buf, 1, cap, in);
          const int error = errno;
          // A short read is the end of the file only when no error is
          // set: PUT_END must never commit a file cut short by one.
          AEC_CHECK_MSG(!std::ferror(in), "cannot read "
                                              << path.string() << ": "
                                              << std::strerror(error));
          return n;
        });
    std::fclose(in);
    return result;
  } catch (...) {
    std::fclose(in);
    throw;
  }
}

std::uint64_t Client::get(const std::string& name, const ChunkSink& sink) {
  OpScope scope(*this, "get");
  scope.set_label(name);
  const std::uint64_t id = next_request_id_++;
  PayloadWriter w;
  w.str(name);
  Frame frame{static_cast<std::uint16_t>(Op::kGetFile), id, w.take()};
  frame.trace_id = active_trace_id_;
  send_frame(frame);
  std::uint64_t total = 0;
  for (;;) {
    Frame frame = recv_reply(id);  // throws on kError
    switch (static_cast<Op>(frame.op)) {
      case Op::kGetData:
        total += frame.payload.size();
        sink(BytesView(frame.payload));
        break;
      case Op::kGetEnd: {
        PayloadReader r(frame.payload);
        const std::uint64_t announced = r.u64();
        r.expect_done();
        AEC_CHECK_MSG(announced == total,
                      "GET stream length mismatch: server announced "
                          << announced << ", received " << total);
        return total;
      }
      default:
        AEC_CHECK_MSG(false, "unexpected frame op "
                                 << frame.op << " in GET stream");
    }
  }
}

Bytes Client::get_bytes(const std::string& name) {
  Bytes out;
  get(name, [&](BytesView chunk) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  });
  return out;
}

std::uint64_t Client::get_to_file(const std::string& name,
                                  const std::filesystem::path& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  AEC_CHECK_MSG(out != nullptr,
                "cannot create " << path.string() << ": "
                                 << std::strerror(errno));
  try {
    const std::uint64_t total = get(name, [out](BytesView chunk) {
      AEC_CHECK_MSG(
          std::fwrite(chunk.data(), 1, chunk.size(), out) == chunk.size(),
          "short write");
    });
    AEC_CHECK_MSG(std::fclose(out) == 0, "close: " << std::strerror(errno));
    return total;
  } catch (...) {
    std::fclose(out);
    throw;
  }
}

void Client::node_fail(std::uint32_t node) {
  OpScope scope(*this, "node_fail");
  PayloadWriter w;
  w.u32(node);
  roundtrip(Op::kNodeFail, w.take());
}

void Client::node_heal(std::uint32_t node) {
  OpScope scope(*this, "node_heal");
  PayloadWriter w;
  w.u32(node);
  roundtrip(Op::kNodeHeal, w.take());
}

RebuildResult Client::node_rebuild(std::uint32_t node) {
  OpScope scope(*this, "node_rebuild");
  PayloadWriter w;
  w.u32(node);
  Frame reply = roundtrip(Op::kNodeRebuild, w.take());
  PayloadReader r(reply.payload);
  RebuildResult result;
  result.blocks_repaired = r.u64();
  result.rounds = r.u32();
  result.unrecovered = r.u64();
  r.expect_done();
  return result;
}

}  // namespace aec::net
