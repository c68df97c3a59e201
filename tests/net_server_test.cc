// End-to-end daemon tests: a real Server on an ephemeral port over a
// real temp archive, driven by the Client library and by raw sockets
// for the malformed-input cases. The invariant under attack throughout:
// the server answers bad input with a typed error (or drops the
// connection) — it never crashes, and it never leaks the archive's
// single-writer slot.
#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <string_view>
#include <thread>

#include "common/check.h"
#include "hooked_store.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/archive.h"

namespace aec::net {
namespace {

namespace fs = std::filesystem;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// A request frame whose payload is one string (PUT_BEGIN, GET_FILE).
Frame named_frame(Op op, std::uint64_t request_id, const std::string& name) {
  PayloadWriter w;
  w.str(name);
  return Frame{static_cast<std::uint16_t>(op), request_id, w.take()};
}

/// Raw TCP connection speaking hand-crafted frames — for the malformed
/// and mid-stream-disconnect cases the Client refuses to produce.
class RawConn {
 public:
  /// `rcvbuf` > 0 shrinks the receive buffer before connecting, so a
  /// peer that stops reading backs the server up quickly.
  explicit RawConn(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    AEC_CHECK_MSG(fd_ >= 0, "socket");
    if (rcvbuf > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    AEC_CHECK_MSG(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr) == 0,
                  "connect: " << std::strerror(errno));
  }
  ~RawConn() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_bytes(BytesView bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      AEC_CHECK_MSG(n > 0, "send: " << std::strerror(errno));
      off += static_cast<std::size_t>(n);
    }
  }
  void send_frame(const Frame& frame) { send_bytes(encode_frame(frame)); }

  /// Like send_bytes but returns false (instead of throwing) once the
  /// server reset or closed the connection.
  bool try_send_frame(const Frame& frame) {
    const Bytes bytes = encode_frame(frame);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next frame, or nullopt once the server closed the connection.
  std::optional<Frame> recv_frame() {
    for (;;) {
      if (auto frame = parser_.next()) return frame;
      AEC_CHECK_MSG(!parser_.error(), "client-side framing error");
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      AEC_CHECK_MSG(n >= 0, "recv: " << std::strerror(errno));
      if (n == 0) return std::nullopt;
      parser_.feed(BytesView(buf, static_cast<std::size_t>(n)));
    }
  }

  /// True when a frame's bytes (or EOF) arrive within `ms`.
  bool readable_within(int ms) {
    if (parser_.buffered() > 0) return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, ms) > 0;
  }

  /// Expects an empty-or-not kReply to `request_id`.
  void recv_reply(std::uint64_t request_id) {
    const auto frame = recv_frame();
    AEC_CHECK_MSG(frame.has_value(), "connection closed before reply");
    EXPECT_EQ(frame->op, static_cast<std::uint16_t>(Op::kReply));
    EXPECT_EQ(frame->request_id, request_id);
  }

  /// Reads one GET_FILE response (kGetData* then kGetEnd) to
  /// `request_id` and returns the file's bytes.
  Bytes recv_file(std::uint64_t request_id) {
    Bytes content;
    for (;;) {
      const auto frame = recv_frame();
      AEC_CHECK_MSG(frame.has_value(), "connection closed mid-GET");
      EXPECT_EQ(frame->request_id, request_id);
      if (frame->op == static_cast<std::uint16_t>(Op::kGetData)) {
        content.insert(content.end(), frame->payload.begin(),
                       frame->payload.end());
        continue;
      }
      EXPECT_EQ(frame->op, static_cast<std::uint16_t>(Op::kGetEnd));
      PayloadReader r(frame->payload);
      EXPECT_EQ(r.u64(), content.size());
      return content;
    }
  }

  /// Expects a kError reply and returns its code.
  ErrorCode recv_error(std::uint64_t request_id) {
    const auto frame = recv_frame();
    AEC_CHECK_MSG(frame.has_value(), "connection closed before error reply");
    EXPECT_EQ(frame->op, static_cast<std::uint16_t>(Op::kError));
    EXPECT_EQ(frame->request_id, request_id);
    PayloadReader r(frame->payload);
    const auto code = static_cast<ErrorCode>(r.u16());
    r.str();  // message — must decode
    return code;
  }

 private:
  int fd_ = -1;
  FrameParser parser_;
};

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aec_net_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    archive_ = tools::Archive::create(root_, "AE(3,2,5)", 1024,
                                      Engine::with_threads(2));
    ServerConfig config;
    config.idle_timeout_ms = 0;  // tests control connection lifetime
    server_ = std::make_unique<Server>(archive_.get(), config);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_thread_.joinable()) {
      server_->shutdown();
      server_thread_.join();
    }
    server_.reset();
    archive_.reset();
    fs::remove_all(root_);
  }

  ClientConfig client_config() const {
    ClientConfig config;
    config.port = server_->port();
    return config;
  }

  /// Tears the SetUp server down and serves again with `config` (the
  /// idle sweep stays disabled; tests control connection lifetime).
  void restart_server(ServerConfig config) {
    server_->shutdown();
    server_thread_.join();
    server_.reset();
    config.idle_timeout_ms = 0;
    server_ = std::make_unique<Server>(archive_.get(), config);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  /// Like restart_server, over a fresh AE(3,2,5) archive on a 2-thread
  /// engine with the given store and block size.
  void serve_new_archive(const std::string& store_spec,
                         std::size_t block_size, ServerConfig config) {
    server_->shutdown();
    server_thread_.join();
    server_.reset();
    archive_.reset();
    fs::remove_all(root_);
    archive_ = tools::Archive::create(root_, "AE(3,2,5)", block_size,
                                      Engine::with_threads(2), store_spec);
    config.idle_timeout_ms = 0;
    server_ = std::make_unique<Server>(archive_.get(), config);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  /// Serves a 16 MiB "big" file and a small one, then parks a raw
  /// connection's GET of "big" on the writer lane: the connection stops
  /// reading, so that lane blocks on the write budget until the stall
  /// timeout. The GET is pinned to the writer lane by a PING sent in the
  /// same segment: the PING runs there, and a connection's later request
  /// stays on the lane of its unfinished ones. (Least-loaded dispatch
  /// would not pin it: a lane's load still counts a finished request
  /// until the reactor runs its completion.) Returns the stalled
  /// connection and fills `small`.
  std::unique_ptr<RawConn> stall_writer_lane(Bytes& small) {
    ServerConfig config;
    config.write_queue_limit = 256u << 10;
    config.write_stall_timeout_ms = 8'000;
    serve_new_archive("mem", 64u << 10, config);
    {
      Client writer(client_config());
      writer.put_bytes("big", random_bytes(16u << 20, 11));
      small = random_bytes(100 * 1024 + 3, 12);
      writer.put_bytes("small", small);
    }
    auto stalled = std::make_unique<RawConn>(server_->port(), 4096);
    Bytes frames =
        encode_frame(Frame{static_cast<std::uint16_t>(Op::kPing), 1, {}});
    const Bytes get = encode_frame(named_frame(Op::kGetFile, 2, "big"));
    frames.insert(frames.end(), get.begin(), get.end());
    stalled->send_bytes(frames);
    // Time for the lane to fill the socket buffers and the write budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return stalled;
  }

  fs::path root_;
  std::unique_ptr<tools::Archive> archive_;
  std::unique_ptr<Server> server_;
  std::thread server_thread_;
};

TEST_F(NetServerTest, PingStatList) {
  Client client(client_config());
  client.ping();
  const std::string stat = client.stat_json(false);
  EXPECT_NE(stat.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(stat.find("\"codec\":\"AE(3,2,5)\""), std::string::npos);
  EXPECT_TRUE(client.list().empty());
}

TEST_F(NetServerTest, PutGetRoundTrip) {
  Client client(client_config());
  const Bytes payload = random_bytes(300 * 1024 + 123, 1);
  const PutResult put = client.put_bytes("blob", payload);
  EXPECT_EQ(put.bytes, payload.size());
  EXPECT_GT(put.blocks, 0u);

  EXPECT_EQ(client.get_bytes("blob"), payload);
  const auto files = client.list();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].name, "blob");
  EXPECT_EQ(files[0].bytes, payload.size());
}

TEST_F(NetServerTest, GetFramesFollowChunkLimitBelowBlockSize) {
  // 1000 B frames over 1024 B blocks: every payload straddles a block
  // boundary somewhere, and the tail frame is short.
  ServerConfig config;
  config.get_chunk_bytes = 1000;
  restart_server(config);
  const Bytes payload = random_bytes(300 * 1024 + 123, 5);
  {
    Client writer(client_config());
    writer.put_bytes("blob", payload);
  }
  // A traced client's frames carry the AEC2 header the server writes in
  // place ahead of each payload; the untraced one gets AEC1.
  for (const bool traced : {false, true}) {
    ClientConfig cc = client_config();
    cc.trace = traced;
    Client client(cc);
    Bytes got;
    std::vector<std::size_t> sizes;
    const std::uint64_t total = client.get("blob", [&](BytesView chunk) {
      sizes.push_back(chunk.size());
      got.insert(got.end(), chunk.begin(), chunk.end());
    });
    EXPECT_EQ(total, payload.size()) << "traced " << traced;  // GET_END
    EXPECT_EQ(got, payload) << "traced " << traced;
    ASSERT_EQ(sizes.size(), (payload.size() + 999) / 1000);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
      ASSERT_EQ(sizes[i], 1000u) << "frame " << i << ", traced " << traced;
    EXPECT_EQ(sizes.back(), payload.size() % 1000);
  }
}

TEST_F(NetServerTest, EmptyFileRoundTrip) {
  Client client(client_config());
  EXPECT_EQ(client.put_bytes("empty", {}).bytes, 0u);
  EXPECT_TRUE(client.get_bytes("empty").empty());
}

TEST_F(NetServerTest, ConcurrentConnectionsRoundTrip) {
  // One writer at a time (archive invariant), but reads fan out: eight
  // connections each stream the same file back and must all see the
  // exact bytes.
  const Bytes payload = random_bytes(2 * 1024 * 1024, 2);
  {
    Client writer(client_config());
    writer.put_bytes("shared", payload);
  }
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i)
    readers.emplace_back([&] {
      try {
        Client client(client_config());
        if (client.get_bytes("shared") != payload) ++failures;
      } catch (...) {
        ++failures;
      }
    });
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(NetServerTest, StalledGetDoesNotHoldUpAnotherConnectionsGet) {
  // Connection A asks for more than its write budget and stops reading,
  // so its lane blocks until write_stall_timeout_ms (8 s) drops it.
  // Connection B's GET goes to an idle read lane and finishes at once;
  // with one lane it would queue behind A's stall.
  Bytes small;
  const std::unique_ptr<RawConn> stalled = stall_writer_lane(small);
  const auto start = std::chrono::steady_clock::now();
  {
    Client reader(client_config());
    EXPECT_EQ(reader.get_bytes("small"), small);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(3))
      << "a GET waited for another connection's stalled GET";
  stalled->close();  // frees A's lane at once
}

TEST_F(NetServerTest, PipelinedPutThenGetOnOneConnectionKeepsOrder) {
  // PUT_BEGIN … PUT_END then GET_FILE, sent back to back before reading
  // anything: the replies come in request order, and the GET (which
  // follows the PUT on its lane) sees the committed file.
  const Bytes payload = random_bytes(3 * 1024 * 1024 + 17, 13);
  RawConn conn(server_->port());
  conn.send_frame(named_frame(Op::kPutBegin, 1, "piped"));
  std::uint64_t id = 2;
  for (std::size_t off = 0; off < payload.size(); off += 1u << 20) {
    const std::size_t n = std::min<std::size_t>(1u << 20, payload.size() - off);
    conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPutChunk), id++,
                          Bytes(payload.begin() + static_cast<std::ptrdiff_t>(off),
                                payload.begin() +
                                    static_cast<std::ptrdiff_t>(off + n))});
  }
  const std::uint64_t end_id = id++;
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPutEnd), end_id, {}});
  const std::uint64_t get_id = id++;
  conn.send_frame(named_frame(Op::kGetFile, get_id, "piped"));

  for (std::uint64_t r = 1; r <= end_id; ++r) conn.recv_reply(r);
  EXPECT_EQ(conn.recv_file(get_id), payload);
}

TEST_F(NetServerTest, WriterOpsWaitBehindTheirConnectionsReadLaneGet) {
  // With the writer lane stalled by another connection, C's GET_FILE
  // runs on a read lane; the PUT frames pipelined behind it must wait on
  // the reactor until it finishes (they need the writer lane, which owns
  // the open PUTs), and C's replies still come back in request order.
  Bytes small;
  std::unique_ptr<RawConn> stalled = stall_writer_lane(small);
  const Bytes payload = random_bytes(200 * 1024 + 5, 14);
  RawConn conn(server_->port());
  conn.send_frame(named_frame(Op::kGetFile, 1, "small"));
  conn.send_frame(named_frame(Op::kPutBegin, 2, "fresh"));
  conn.send_frame(
      Frame{static_cast<std::uint16_t>(Op::kPutChunk), 3, payload});
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPutEnd), 4, {}});
  conn.send_frame(named_frame(Op::kGetFile, 5, "fresh"));

  EXPECT_EQ(conn.recv_file(1), small);  // on a read lane, beside the stall
  EXPECT_FALSE(conn.readable_within(200))
      << "a PUT ran before the writer lane was free";
  stalled->close();  // frees the writer lane
  for (std::uint64_t r = 2; r <= 4; ++r) conn.recv_reply(r);
  EXPECT_EQ(conn.recv_file(5), payload);
}

TEST_F(NetServerTest, FailedPutChunkDropsTheWriter) {
  // A store failure inside a PUT_CHUNK's window poisons the file: the
  // server drops the connection's writer, so PUT_END answers kBadState
  // and nothing is committed, and the next PUT succeeds.
  const auto store = test::register_hooked_family("flakynet");
  serve_new_archive("flakynet", 1024, ServerConfig{});
  RawConn conn(server_->port());
  conn.send_frame(named_frame(Op::kPutBegin, 1, "doomed"));
  conn.recv_reply(1);
  (*store)->fail_countdown = 100;  // inside the first 512-block window
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPutChunk), 2,
                        random_bytes(600 * 1024, 15)});
  EXPECT_EQ(conn.recv_error(2), ErrorCode::kIo);
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPutEnd), 3, {}});
  EXPECT_EQ(conn.recv_error(3), ErrorCode::kBadState);

  Client client(client_config());
  const Bytes payload = random_bytes(700 * 1024 + 9, 16);
  client.put_bytes("kept", payload);
  EXPECT_EQ(client.get_bytes("kept"), payload);
  const auto files = client.list();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].name, "kept");
}

TEST_F(NetServerTest, GetRepairsDamagedBlocks) {
  const Bytes payload = random_bytes(64 * 1024, 3);
  {
    Client client(client_config());
    client.put_bytes("fragile", payload);
  }
  // Out-of-band damage + reindex so the daemon's index sees it. (Both
  // are exclusive archive operations, so this direct access from the
  // test thread waits for any GET in flight on the server's lanes.)
  EXPECT_GT(archive_->inject_damage(0.2, 99), 0u);
  archive_->reindex();
  Client client(client_config());
  EXPECT_EQ(client.get_bytes("fragile"), payload);
}

TEST_F(NetServerTest, ScrubOverWire) {
  Client client(client_config());
  client.put_bytes("scrubme", random_bytes(32 * 1024, 4));
  const ScrubResult clean = client.scrub();
  EXPECT_EQ(clean.unrecovered, 0u);
}

TEST_F(NetServerTest, UnknownFileIsTypedNotFound) {
  Client client(client_config());
  try {
    client.get_bytes("nope");
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
  client.ping();  // connection still usable after a typed error
}

TEST_F(NetServerTest, UnknownOpcodeIsTypedError) {
  RawConn conn(server_->port());
  conn.send_frame(Frame{0x7777, 5, {}});
  EXPECT_EQ(conn.recv_error(5), ErrorCode::kUnknownOp);
  // The stream stays framed; the connection survives.
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPing), 6, {}});
  const auto pong = conn.recv_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->op, static_cast<std::uint16_t>(Op::kReply));
}

TEST_F(NetServerTest, MalformedPayloadIsTypedError) {
  RawConn conn(server_->port());
  // kStat wants a u8; an empty payload must come back kBadPayload.
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kStat), 7, {}});
  EXPECT_EQ(conn.recv_error(7), ErrorCode::kBadPayload);
  // Trailing garbage after a complete payload is equally typed.
  PayloadWriter w;
  w.u8(0);
  w.u32(123);
  conn.send_frame(
      Frame{static_cast<std::uint16_t>(Op::kStat), 8, w.take()});
  EXPECT_EQ(conn.recv_error(8), ErrorCode::kBadPayload);
  // A streamed op answers a bad request payload the same way.
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kGetFile), 9, {}});
  EXPECT_EQ(conn.recv_error(9), ErrorCode::kBadPayload);
}

TEST_F(NetServerTest, GarbageStreamGetsErrorThenDisconnect) {
  RawConn conn(server_->port());
  conn.send_bytes(Bytes(64, 0x5A));  // not a frame
  EXPECT_EQ(conn.recv_error(0), ErrorCode::kBadFrame);
  EXPECT_FALSE(conn.recv_frame().has_value());  // server hung up
}

TEST_F(NetServerTest, OversizedFrameGetsErrorThenDisconnect) {
  RawConn conn(server_->port());
  Bytes header;
  Frame huge{static_cast<std::uint16_t>(Op::kPutChunk), 9, {}};
  encode_frame(huge, header);
  // Patch payload_len to 512 MiB without sending a body.
  const std::uint32_t len = 512u << 20;
  std::memcpy(header.data() + 4, &len, 4);
  conn.send_bytes(header);
  EXPECT_EQ(conn.recv_error(0), ErrorCode::kBadFrame);
  EXPECT_FALSE(conn.recv_frame().has_value());
}

TEST_F(NetServerTest, PutChunkWithoutBeginIsBadState) {
  RawConn conn(server_->port());
  conn.send_frame(
      Frame{static_cast<std::uint16_t>(Op::kPutChunk), 10, {1, 2, 3}});
  EXPECT_EQ(conn.recv_error(10), ErrorCode::kBadState);
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPutEnd), 11, {}});
  EXPECT_EQ(conn.recv_error(11), ErrorCode::kBadState);
}

TEST_F(NetServerTest, SecondIngestIsBusyUntilFirstDisconnects) {
  RawConn holder(server_->port());
  {
    PayloadWriter w;
    w.str("held");
    holder.send_frame(
        Frame{static_cast<std::uint16_t>(Op::kPutBegin), 12, w.take()});
    const auto reply = holder.recv_frame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->op, static_cast<std::uint16_t>(Op::kReply));
  }
  Client other(client_config());
  try {
    other.put_bytes("second", random_bytes(1024, 5));
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBusy);
  }
  // Dropping the holder mid-stream must release the writer slot: the
  // abandoned file never appears, and a new ingest succeeds.
  holder.close();
  for (int attempt = 0;; ++attempt) {
    try {
      other.put_bytes("second_retry_" + std::to_string(attempt),
                      random_bytes(1024, 6));
      break;
    } catch (const RemoteError& e) {
      ASSERT_EQ(e.code(), ErrorCode::kBusy);
      ASSERT_LT(attempt, 100) << "writer slot never released";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (const auto& entry : other.list())
    EXPECT_NE(entry.name, "held") << "abandoned ingest left a manifest entry";
}

TEST_F(NetServerTest, ErrorFloodTripsWriteBudget) {
  // A client that streams rejected frames while never reading the
  // replies must be dropped once the queued error replies exceed the
  // write budget — loop-originated sends respect write_queue_limit
  // rather than growing the write queue without bound.
  ServerConfig config;
  config.write_queue_limit = 4 * 1024;
  restart_server(config);
  RawConn conn(server_->port());
  const Frame bad{0x7777, 1, {}};
  // Flood until the server-side close surfaces as a failed send (RST).
  // The volume needed is environment-dependent — the kernel's
  // auto-tuned socket buffers absorb replies before the server's own
  // write queue (the budgeted part) starts growing — so loop on a
  // deadline, not an iteration count.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool dropped = false;
  while (!dropped && std::chrono::steady_clock::now() < deadline)
    dropped = !conn.try_send_frame(bad);
  EXPECT_TRUE(dropped) << "server kept absorbing an unread error flood";
}

TEST_F(NetServerTest, MetricsExposeNetCounters) {
  Client client(client_config());
  client.ping();
  const std::string metrics = client.metrics_json();
  EXPECT_NE(metrics.find("net.conn.accepted"), std::string::npos);
  EXPECT_NE(metrics.find("net.req.count"), std::string::npos);
  EXPECT_NE(metrics.find("net.req.latency_us.ping"), std::string::npos);
  const std::string stat = client.stat_json(true);
  EXPECT_NE(stat.find("\"metrics\""), std::string::npos);
  EXPECT_NE(stat.find("net.req.bytes_in"), std::string::npos);
}

TEST_F(NetServerTest, BytesInCountsTheWireHeader) {
  // A PING's payload is empty, so each one adds exactly its header: the
  // 20-byte AEC1 header untraced, the 28-byte AEC2 header traced.
  const obs::Counter* bytes_in =
      obs::MetricsRegistry::global().counter("net.req.bytes_in");
  for (const bool traced : {false, true}) {
    ClientConfig config = client_config();
    config.trace = traced;
    Client client(config);
    const std::uint64_t before = bytes_in->value();
    client.ping();
    EXPECT_EQ(bytes_in->value() - before, traced ? 28u : 20u)
        << "traced " << traced;
  }
}

TEST_F(NetServerTest, ShutdownDrainsAndRefusesNewWork) {
  Client client(client_config());
  client.ping();
  server_->shutdown();
  server_thread_.join();
  // The listener is gone: a fresh connection must be refused.
  EXPECT_THROW(Client probe(client_config()), CheckError);
}

// --- trace propagation ------------------------------------------------------

TEST_F(NetServerTest, TracedRequestSharesOneIdAcrossBothEnds) {
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.enable();
  ClientConfig config = client_config();
  config.trace = true;
  std::uint64_t put_id = 0;
  std::uint64_t get_id = 0;
  {
    Client client(config);
    client.put_bytes("traced", random_bytes(64 * 1024, 3));
    put_id = client.last_trace_id();
    client.get_bytes("traced");
    get_id = client.last_trace_id();
  }
  ASSERT_NE(put_id, 0u);
  ASSERT_NE(get_id, 0u);
  EXPECT_NE(put_id, get_id);  // one fresh id per logical op

  // Client and server run in one process here, so the global ring holds
  // both ends: the client's "net.client.request" span and the daemon's
  // "net.request" spans must carry the same wire-propagated id. The
  // server records its span after posting the last reply buffer to the
  // reactor, so the client can observe the reply before the event lands
  // — poll briefly before asserting.
  const auto count_spans = [&](std::uint64_t id, std::string_view name) {
    std::size_t n = 0;
    for (const obs::TraceEvent& ev : ring.events())
      if (ev.req == id && std::string_view(ev.name) == name) ++n;
    return n;
  };
  for (int i = 0; i < 200 && count_spans(get_id, "net.request") == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ring.disable();

  EXPECT_EQ(count_spans(put_id, "net.client.request"), 1u);
  // PUT_BEGIN + chunk acks + PUT_END: several server requests, one op.
  EXPECT_GE(count_spans(put_id, "net.request"), 3u);
  EXPECT_EQ(count_spans(get_id, "net.client.request"), 1u);
  EXPECT_GE(count_spans(get_id, "net.request"), 1u);
}

TEST_F(NetServerTest, UntracedClientLeavesTraceIdZero) {
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.enable();
  {
    Client client(client_config());  // trace off (default)
    client.ping();
    EXPECT_EQ(client.last_trace_id(), 0u);
  }
  ring.disable();
  // The server span falls back to the request id, never to a stale
  // trace id.
  for (const obs::TraceEvent& ev : ring.events()) {
    if (std::string_view(ev.name) == "net.client.request") {
      EXPECT_EQ(ev.req, 0u);
    }
  }
}

// --- observability HTTP listener --------------------------------------------

/// One-shot HTTP GET against the exposition listener; returns the full
/// response (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  AEC_CHECK_MSG(fd >= 0, "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  AEC_CHECK_MSG(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0,
                "connect: " << std::strerror(errno));
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  AEC_CHECK_MSG(::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                    static_cast<ssize_t>(request.size()),
                "send");
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

TEST_F(NetServerTest, HttpMetricsServesPrometheusText) {
  ServerConfig config;
  config.http_port = 0;  // ephemeral
  restart_server(config);
  {
    Client client(client_config());
    client.ping();
  }
  const std::string response = http_get(server_->http_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE aec_net_req_count counter"),
            std::string::npos);
  EXPECT_NE(response.find("aec_health_vulnerable_blocks"),
            std::string::npos);
}

TEST_F(NetServerTest, HttpHealthzFlipsWithArchiveHealth) {
  ServerConfig config;
  config.http_port = 0;
  restart_server(config);
  {
    Client writer(client_config());
    writer.put_bytes("blob", random_bytes(128 * 1024, 4));
  }
  std::string response = http_get(server_->http_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

  // Out-of-band damage + reindex → missing blocks → not-ok.
  archive_->inject_damage(0.2, 5);
  archive_->reindex();
  response = http_get(server_->http_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos);

  {
    Client fixer(client_config());
    fixer.scrub();
  }
  response = http_get(server_->http_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
      << response;
}

TEST_F(NetServerTest, HttpTraceServesRingAndFiltersById) {
  ServerConfig config;
  config.http_port = 0;
  restart_server(config);
  obs::TraceRing::global().enable();
  ClientConfig cc = client_config();
  cc.trace = true;
  std::uint64_t id = 0;
  {
    Client client(cc);
    client.ping();
    id = client.last_trace_id();
  }
  const std::string all =
      http_get(server_->http_port(), "/trace");
  EXPECT_NE(all.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(all.find("\"trace_summary\""), std::string::npos);
  const std::string filtered = http_get(
      server_->http_port(), "/trace?request_id=" + std::to_string(id));
  obs::TraceRing::global().disable();
  EXPECT_NE(filtered.find("\"name\":\"net.request\""), std::string::npos);
  EXPECT_NE(filtered.find("\"req\":" + std::to_string(id)),
            std::string::npos);
}

TEST_F(NetServerTest, HttpRejectsUnknownTargetsAndMethods) {
  ServerConfig config;
  config.http_port = 0;
  restart_server(config);
  EXPECT_NE(http_get(server_->http_port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  // Non-GET: the request line's method decides before the target.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->http_port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string request =
      "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
}

TEST_F(NetServerTest, HttpListenerDisabledByDefault) {
  // The SetUp server runs with http_port = -1: nothing to scrape, and
  // http_port() reports 0.
  EXPECT_EQ(server_->http_port(), 0u);
}

}  // namespace
}  // namespace aec::net
