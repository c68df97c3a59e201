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
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stop_token>
#include <string_view>
#include <thread>

#include "common/check.h"
#include "common/cli.h"
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

  /// A receive that waits longer than `ms` fails (recv_frame throws).
  void set_recv_timeout(int ms) {
    const timeval tv{ms / 1000, (ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
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
      const std::span<std::uint8_t> into = parser_.prepare(64 * 1024);
      const ssize_t n = ::recv(fd_, into.data(), into.size(), 0);
      AEC_CHECK_MSG(n >= 0, "recv: " << std::strerror(errno));
      if (n == 0) return std::nullopt;
      parser_.commit(static_cast<std::size_t>(n));
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

/// Polls until `done()` holds or `seconds` pass; returns `done()`.
template <typename Done>
bool wait_until(Done done, int seconds = 20) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return done();
}

TEST_F(NetServerTest, GetToASlowReaderLeavesThroughTheReactorByteExact) {
  // The client reads nothing until the lane has finished the GET: the
  // lane's first frame fills the socket, and the rest of the file waits
  // in the reactor's queue (the 16 MiB budget holds it all). Then every
  // byte arrives in order, GET_END last, and net.req.bytes_out counts
  // exactly the bytes the client read.
  serve_new_archive("mem", 64u << 10, ServerConfig{});
  const Bytes content = random_bytes(8u << 20, 21);
  archive_->add_file("big", content);  // no reply bytes before out0
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::Counter* bytes_out = reg.counter("net.req.bytes_out");
  const obs::Histogram* gets = reg.histogram(
      "net.req.latency_us.get_file", obs::Histogram::latency_bounds_us());
  const std::uint64_t out0 = bytes_out->value();
  const std::uint64_t gets0 = gets->count();

  RawConn conn(server_->port(), 4096);
  conn.send_frame(named_frame(Op::kGetFile, 1, "big"));
  // The lane records the GET's latency once it has sent or queued it all.
  ASSERT_TRUE(wait_until([&] { return gets->count() > gets0; }))
      << "the lane did not finish the GET ahead of its reader";

  Bytes got;
  std::uint64_t wire = 0;
  for (;;) {
    const auto frame = conn.recv_frame();
    ASSERT_TRUE(frame.has_value()) << "connection closed mid-GET";
    ASSERT_EQ(frame->request_id, 1u);
    wire += header_size(frame->trace_id) + frame->payload.size();
    if (frame->op == static_cast<std::uint16_t>(Op::kGetData)) {
      got.insert(got.end(), frame->payload.begin(), frame->payload.end());
      continue;
    }
    ASSERT_EQ(frame->op, static_cast<std::uint16_t>(Op::kGetEnd));
    PayloadReader r(frame->payload);
    EXPECT_EQ(r.u64(), content.size());
    break;
  }
  EXPECT_EQ(got, content);
  EXPECT_FALSE(conn.readable_within(100)) << "bytes after GET_END";
  // The reactor counts its last write just after making it.
  wait_until([&] { return bytes_out->value() - out0 >= wire; }, 5);
  EXPECT_EQ(bytes_out->value() - out0, wire);
}

TEST_F(NetServerTest, BusyRepliesBesideAStreamingGetParseAsWholeFrames) {
  // One admission slot, held by a GET of 1 MiB frames that a reader
  // thread drains. The write budget has room for one frame beside the
  // replies, so the lane sends most frames itself and the socket often
  // takes only part of one. PINGs pipelined behind the GET get the
  // reactor's kBusy replies (or, once the GET is done, a lane's kReply),
  // and every one must land between frames, never inside one. Spinning
  // threads oversubscribe the cores meanwhile, so the lane is now and
  // then preempted mid-send: a send that let go of the gate mutex would
  // then let a busy reply into the middle of a frame. All five rounds
  // must end whole: the reactor's drop guard counts only its own unsent
  // error replies, never the GET frames queued beside them, so no round
  // is cut short.
  ServerConfig config;
  config.max_inflight = 1;
  config.get_chunk_bytes = 1u << 20;
  config.write_queue_limit = (1u << 20) + (512u << 10);
  serve_new_archive("mem", 64u << 10, config);
  const Bytes content = random_bytes(16u << 20, 22);
  archive_->add_file("big", content);

  const auto ping = static_cast<std::uint16_t>(Op::kPing);
  const std::uint16_t sentinel = 0x7777;  // an unknown opcode
  const auto reset = [](const CheckError& e) {
    const std::string_view what = e.what();
    return what.find("reset by peer") != std::string_view::npos ||
           what.find("Broken pipe") != std::string_view::npos;
  };
  // One GET on a fresh connection; false when the server dropped it.
  const auto round = [&] {
    RawConn conn(server_->port(), 64 << 10);
    conn.set_recv_timeout(30'000);
    std::atomic<std::size_t> progress{0};  // GET payload bytes received
    std::atomic<bool> got_end{false};
    std::atomic<bool> reader_stopped{false};
    bool dropped = false;
    Bytes got;
    std::uint64_t end_bytes = 0;
    std::size_t busy = 0;
    std::string failure;
    std::thread reader([&] {
      for (;;) {
        std::optional<Frame> frame;
        try {
          frame = conn.recv_frame();
        } catch (const CheckError& e) {
          if (reset(e))
            dropped = true;
          else
            failure = e.what();  // a frame split by another fails to parse
          break;
        }
        if (!frame) {
          dropped = true;
          break;
        }
        if (frame->request_id == 1 &&
            frame->op == static_cast<std::uint16_t>(Op::kGetData)) {
          got.insert(got.end(), frame->payload.begin(), frame->payload.end());
          progress += frame->payload.size();
        } else if (frame->request_id == 1 &&
                   frame->op == static_cast<std::uint16_t>(Op::kGetEnd)) {
          PayloadReader r(frame->payload);
          end_bytes = r.u64();
          got_end = true;
        } else if (frame->op == static_cast<std::uint16_t>(Op::kError)) {
          PayloadReader r(frame->payload);
          const auto code = static_cast<ErrorCode>(r.u16());
          r.str();
          if (code == ErrorCode::kUnknownOp) break;  // the sentinel: done
          if (code != ErrorCode::kBusy) {
            failure = "refused with code " +
                      std::to_string(static_cast<int>(code));
            break;
          }
          ++busy;
        } else if (frame->op != static_cast<std::uint16_t>(Op::kReply)) {
          failure = "request " + std::to_string(frame->request_id) +
                    " answered with op " + std::to_string(frame->op);
          break;
        }
      }
      reader_stopped = true;
    });
    std::string send_failure;
    {
      std::vector<std::jthread> spinners;
      for (unsigned k = 0; k < 2 * std::thread::hardware_concurrency(); ++k)
        spinners.emplace_back([](std::stop_token stop) {
          while (!stop.stop_requested()) {
          }
        });
      try {
        conn.send_frame(named_frame(Op::kGetFile, 1, "big"));
        // Ten PINGs per 64 KiB of the GET received, until it ends.
        std::uint64_t id = 2;
        for (std::size_t batches = 0; !got_end && !reader_stopped;) {
          if (progress < batches * (64u << 10)) {
            std::this_thread::yield();
            continue;
          }
          Bytes batch;
          for (int k = 0; k < 10; ++k)
            encode_frame(Frame{ping, id++, {}}, batch);
          conn.send_bytes(batch);
          ++batches;
        }
        // The reactor answers the sentinel after every busy reply before it.
        conn.send_frame(Frame{sentinel, id, {}});
      } catch (const CheckError& e) {
        // The reader stops at the closed socket too.
        if (!reset(e)) send_failure = e.what();
      }
    }
    reader.join();
    EXPECT_EQ(send_failure, "");
    EXPECT_EQ(failure, "");
    if (dropped && failure.empty()) return false;
    EXPECT_TRUE(got_end);
    EXPECT_EQ(end_bytes, content.size());
    EXPECT_EQ(got, content);
    EXPECT_GT(busy, 0u);
    return true;
  };
  for (int r = 0; r < 5; ++r) {
    SCOPED_TRACE(::testing::Message() << "round " << r);
    EXPECT_TRUE(round()) << "the server dropped the connection mid-GET";
  }
}

TEST_F(NetServerTest, BusyReplyBesideAGetThatFillsTheBudgetKeepsTheReader) {
  // The client reads nothing until its GET's frames fill the write
  // budget (the lane then waits on it), and then pipelines one PING past
  // max_inflight. The reactor's kBusy reply queues behind those frames,
  // and the client then reads the whole file and the reply. GET_DATA
  // frames of 32 payload bytes are smaller than that reply, so once the
  // lane waits the budget is within one reply of full: a drop guard that
  // counted the queued GET frames would reset this reader mid-GET.
  ServerConfig config;
  config.max_inflight = 1;
  config.get_chunk_bytes = 32;
  config.write_queue_limit = 16u << 10;
  config.write_stall_timeout_ms = 30'000;
  serve_new_archive("mem", 1024, config);
  const Bytes content = random_bytes(2u << 20, 25);
  archive_->add_file("big", content);

  RawConn conn(server_->port(), 4096);
  conn.set_recv_timeout(30'000);
  conn.send_frame(named_frame(Op::kGetFile, 1, "big"));
  // Time for the lane to fill the socket buffers and the write budget.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  conn.send_frame(Frame{static_cast<std::uint16_t>(Op::kPing), 2, {}});

  Bytes got;
  bool got_end = false;
  int busy = 0;
  while (!got_end || busy == 0) {
    const auto frame = conn.recv_frame();
    ASSERT_TRUE(frame.has_value())
        << "connection closed after " << got.size() << " bytes";
    if (frame->request_id == 2) {
      ASSERT_EQ(frame->op, static_cast<std::uint16_t>(Op::kError));
      PayloadReader r(frame->payload);
      EXPECT_EQ(static_cast<ErrorCode>(r.u16()), ErrorCode::kBusy);
      ++busy;
      continue;
    }
    ASSERT_EQ(frame->request_id, 1u);
    if (frame->op == static_cast<std::uint16_t>(Op::kGetData)) {
      got.insert(got.end(), frame->payload.begin(), frame->payload.end());
      continue;
    }
    ASSERT_EQ(frame->op, static_cast<std::uint16_t>(Op::kGetEnd));
    PayloadReader r(frame->payload);
    EXPECT_EQ(r.u64(), content.size());
    got_end = true;
  }
  EXPECT_EQ(got, content);
  EXPECT_EQ(busy, 1);
  EXPECT_FALSE(conn.readable_within(100)) << "bytes after the replies";
}

TEST_F(NetServerTest, UnreadBusyRepliesBesideAFullBudgetGetAreStillDropped) {
  // A client whose GET fills the write budget and which then floods
  // PINGs past max_inflight while reading nothing: its kBusy replies
  // queue behind the GET's frames, and once those unsent replies alone
  // pass the budget the reactor drops the connection.
  ServerConfig config;
  config.max_inflight = 1;
  config.get_chunk_bytes = 32;
  config.write_queue_limit = 16u << 10;
  config.write_stall_timeout_ms = 30'000;
  serve_new_archive("mem", 1024, config);
  archive_->add_file("big", random_bytes(2u << 20, 26));

  RawConn conn(server_->port(), 4096);
  conn.send_frame(named_frame(Op::kGetFile, 1, "big"));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool dropped = false;
  for (std::uint64_t id = 2;
       !dropped && std::chrono::steady_clock::now() < deadline; ++id)
    dropped = !conn.try_send_frame(
        Frame{static_cast<std::uint16_t>(Op::kPing), id, {}});
  EXPECT_TRUE(dropped) << "server kept absorbing unread busy replies";
}

TEST_F(NetServerTest, HangUpMidGetFreesTheLaneAndSparesTheNextConnection) {
  // A client that hangs up while its GET streams (the lane waiting on
  // the write budget) frees the lane at once, and a connection opened
  // right after it (often on the same fd number) gets only its own
  // replies — no lane writes to the closed or reused fd.
  ServerConfig config;
  config.write_queue_limit = 512u << 10;
  config.write_stall_timeout_ms = 30'000;
  serve_new_archive("mem", 64u << 10, config);
  const Bytes big = random_bytes(8u << 20, 23);
  const Bytes small = random_bytes(100 * 1024 + 3, 24);
  archive_->add_file("big", big);
  archive_->add_file("small", small);
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < 5; ++round) {
    {
      RawConn quitter(server_->port(), 4096);
      quitter.send_frame(named_frame(Op::kGetFile, 1, "big"));
      const auto first = quitter.recv_frame();
      ASSERT_TRUE(first.has_value());
      ASSERT_EQ(first->op, static_cast<std::uint16_t>(Op::kGetData));
    }  // hangs up mid-GET
    RawConn next(server_->port());
    next.send_frame(Frame{static_cast<std::uint16_t>(Op::kPing), 7, {}});
    next.send_frame(named_frame(Op::kGetFile, 8, "small"));
    next.recv_reply(7);
    EXPECT_EQ(next.recv_file(8), small) << "round " << round;
    EXPECT_FALSE(next.readable_within(100)) << "round " << round;
  }
  // A scrub waits for every open FileReader: it finishes long before
  // the 30 s stall timeout only if each abandoned GET let go of its own.
  Client client(client_config());
  EXPECT_EQ(client.scrub().unrecovered, 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
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

TEST_F(NetServerTest, PutFileReadErrorCommitsNothing) {
  // A directory opens but cannot be read (EISDIR): put_file must throw
  // before PUT_END instead of taking the failed read for the end of the
  // file. Once that client is gone the server abandons its PUT, so the
  // name was never committed and a new connection can PUT it.
  const fs::path unreadable = root_ / "not_a_file";
  fs::create_directories(unreadable);
  {
    Client failed(client_config());
    try {
      failed.put_file("d", unreadable);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(unreadable.string()),
                std::string::npos)
          << e.what();
    }
  }
  Client client(client_config());
  for (const auto& entry : client.list())
    EXPECT_NE(entry.name, "d") << "a failed read committed a file";
  const Bytes payload = random_bytes(5000, 17);
  for (int attempt = 0;; ++attempt) {
    try {
      client.put_bytes("d", payload);
      break;
    } catch (const RemoteError& e) {
      // The server may not have seen the failed client's close yet.
      ASSERT_EQ(e.code(), ErrorCode::kBusy);
      ASSERT_LT(attempt, 100) << "writer slot never released";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(client.get_bytes("d"), payload);
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

TEST_F(NetServerTest, ScrubOverWireReportsCorruption) {
  // One byte of d/14 flipped while the daemon was down: the scrub reply
  // carries the inconsistent parities that make `aecc scrub` exit 1.
  {
    Client client(client_config());
    client.put_bytes("doc", random_bytes(200000, 25));
  }
  server_->shutdown();
  server_thread_.join();
  server_.reset();
  archive_.reset();
  {
    std::fstream block(root_ / "d" / "14",
                       std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(block.is_open());
    block.seekg(100);
    const char byte = static_cast<char>(block.get() ^ 0x5A);
    block.seekp(100);
    block.put(byte);
  }
  archive_ = tools::Archive::open(root_, Engine::with_threads(2));
  ServerConfig config;
  config.idle_timeout_ms = 0;
  server_ = std::make_unique<Server>(archive_.get(), config);
  server_thread_ = std::thread([this] { server_->run(); });

  Client client(client_config());
  const ScrubResult result = client.scrub();
  EXPECT_EQ(result.unrecovered, 0u);
  EXPECT_EQ(result.inconsistent_parities, 3u);
  EXPECT_EQ(cli::scrub_exit_status(result.unrecovered,
                                   result.inconsistent_parities, 0),
            1);
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

TEST_F(NetServerTest, BytesInCountsEachFramesRealHeaderAndPayload) {
  // Each frame counts the header it really carried plus its payload, as
  // the parser saw them: an AEC2 frame whose trace id is 0 still counts
  // 28 header bytes, and a payload larger than the parser's staging
  // buffer counts whole.
  const obs::Counter* bytes_in =
      obs::MetricsRegistry::global().counter("net.req.bytes_in");
  RawConn conn(server_->port());
  const auto v2_zero_trace = [](Frame frame) {
    frame.trace_id = 1;
    Bytes wire = encode_frame(frame);
    std::fill(wire.begin() + 20, wire.begin() + 28, 0);
    return wire;
  };
  const auto ping = static_cast<std::uint16_t>(Op::kPing);
  const auto chunk = static_cast<std::uint16_t>(Op::kPutChunk);
  struct Case {
    Bytes wire;
    std::size_t expect;
  };
  Frame traced{ping, 3, Bytes(5, 9)};
  traced.trace_id = 0xABCDEF;
  const std::vector<Case> cases = {
      {encode_frame(Frame{ping, 1, {}}), 20},
      {v2_zero_trace(Frame{ping, 2, {}}), 28},
      {encode_frame(traced), 28 + 5},
      {v2_zero_trace(Frame{ping, 4, Bytes(7, 1)}), 28 + 7},
      {encode_frame(Frame{chunk, 5, Bytes(10'000, 2)}), 20 + 10'000},
      {v2_zero_trace(Frame{chunk, 6, Bytes(70'000, 3)}), 28 + 70'000},
  };
  std::uint64_t id = 1;
  for (const Case& c : cases) {
    ASSERT_EQ(c.wire.size(), c.expect);
    const std::uint64_t before = bytes_in->value();
    conn.send_bytes(c.wire);
    // Any reply (a payload on PING and a chunk without PUT_BEGIN are
    // errors) comes after the frame was counted.
    const auto reply = conn.recv_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->request_id, id++);
    EXPECT_EQ(bytes_in->value() - before, c.expect)
        << "frame of " << c.wire.size() << " wire bytes";
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
