// aecd server core: one epoll reactor thread + one archive-executor
// thread serving an Archive over the framed protocol (protocol.h).
//
// Threading model
//   · The reactor thread (run()) owns every socket, read/write buffer
//     and framing state machine. It never touches the archive or the
//     disk: complete request frames are handed to the executor queue,
//     and everything it does per byte is O(1) buffer work.
//   · The archive-executor thread drains that queue in FIFO order and
//     is the only thread that calls into the Archive. Requests from
//     different connections are therefore serialized at the archive
//     boundary — which is exactly the Engine contract (sessions of one
//     engine must not run append/repair concurrently, engine.h) — while
//     each operation itself fans out across the shared Engine worker
//     pool. Running archive work *as* a pool task would deadlock: the
//     session's own wave barriers call pool.wait_idle(), which can
//     never return while the caller occupies a worker slot.
//
// Flow control (three independent valves):
//   · Admission: at most `max_inflight` requests queued/executing
//     across all connections; excess requests get an immediate
//     ErrorCode::kBusy reply and never reach the executor.
//   · Per-connection write budget: a connection may have at most
//     `write_queue_limit` response bytes queued. The executor blocks
//     before producing more output for that connection (bounded by
//     `write_stall_timeout_ms`, after which the connection is dropped —
//     a client that stops reading cannot park the archive lane
//     forever).
//   · Idle timeout: connections with no socket activity and no queued
//     work for `idle_timeout_ms` are closed by the periodic sweep.
//
// Shutdown: shutdown() (thread-safe, also wired to SIGTERM by aecd)
// stops accepting, rejects new requests with kShuttingDown, lets
// in-flight requests finish and their responses flush, then stops the
// loop — bounded by `drain_timeout_ms`.
//
// Observability: net.conn.{accepted,closed,active}, net.req.{count,
// rejected,bytes_in,bytes_out}, per-opcode latency histograms
// net.req.latency_us.<op> (queue wait + execution), and a "net.request"
// trace span per executed request (a0 = opcode, a1 = request payload
// bytes) labelled with the opcode name and stamped with the frame's
// trace id (falling back to the request id), so client and daemon spans
// of one request share a correlation id.
//
// When `http_port` >= 0 a second, plain-HTTP listener joins the same
// reactor: GET /metrics serves the Prometheus text exposition, GET
// /healthz answers 200/503 from the health gauges, GET /trace dumps the
// span ring as JSONL. Exposition is reactor-thread-only and reads
// nothing but atomics (metric registry snapshots, the trace ring) — a
// wedged archive executor can never wedge the health endpoint.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace aec::tools {
class Archive;
class FileWriter;
}  // namespace aec::tools

namespace aec::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-chosen ephemeral port
  std::size_t max_connections = 256;
  /// Per-frame payload bound enforced by the deframer.
  std::size_t max_payload = kDefaultMaxPayload;
  /// Admission limit: requests queued or executing across all
  /// connections; excess gets ErrorCode::kBusy.
  std::size_t max_inflight = 64;
  /// Response bytes a single connection may have queued before the
  /// executor blocks producing more for it.
  std::size_t write_queue_limit = 16u << 20;
  /// GET_FILE stream chunk size (one kGetData frame's payload).
  std::size_t get_chunk_bytes = 256u << 10;
  int idle_timeout_ms = 60'000;       // 0 = never sweep
  int write_stall_timeout_ms = 10'000;
  int drain_timeout_ms = 10'000;
  /// Observability HTTP listener (GET /metrics | /healthz | /trace).
  /// -1 = disabled, 0 = kernel-chosen ephemeral port.
  int http_port = -1;
};

class Server {
 public:
  /// `archive` must outlive the server; the server becomes its only
  /// user for the duration of run() (the executor thread is the one
  /// archive caller).
  Server(tools::Archive* archive, ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound port (resolves config.port == 0).
  std::uint16_t port() const noexcept { return port_; }
  /// The bound observability HTTP port (0 when disabled).
  std::uint16_t http_port() const noexcept { return http_port_; }
  /// The reactor, for wiring extra fds (aecd adds its signalfd).
  EventLoop& loop() noexcept { return loop_; }

  /// Serves on the calling thread until shutdown() completes a drain.
  void run();
  /// Thread-safe graceful drain; run() returns once it finishes.
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  /// Loop↔executor backpressure state for one connection, shared so
  /// the executor can block on a write budget the loop replenishes.
  struct WriteGate {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t queued = 0;  // response bytes enqueued, not yet written
    bool closed = false;
  };

  /// Reactor-thread-only connection state.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameParser parser;
    std::deque<Bytes> write_queue;
    std::size_t write_offset = 0;  // into write_queue.front()
    std::shared_ptr<WriteGate> gate;
    Clock::time_point last_activity{};
    std::size_t inflight = 0;
    bool want_write = false;
    bool close_after_flush = false;

    explicit Connection(std::size_t max_payload) : parser(max_payload) {}
  };

  struct ExecItem {
    enum class Kind { kRequest, kConnClosed, kStop };
    Kind kind = Kind::kRequest;
    std::uint64_t conn_id = 0;
    Frame frame;
    std::shared_ptr<WriteGate> gate;
    Clock::time_point enqueued{};
  };

  /// Reactor-thread-only HTTP exposition connection: one request in,
  /// one response out, then close. No gate — responses are bounded
  /// (metrics/trace snapshots) and never touch the executor.
  struct HttpConn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string in;   // request bytes until the blank line
    std::string out;  // encoded response
    std::size_t out_off = 0;
    bool responded = false;
    Clock::time_point last_activity{};
  };

  // --- reactor side (loop thread) ---------------------------------------
  void open_listener();
  void on_accept();
  void on_conn_event(std::uint64_t conn_id, std::uint32_t events);
  void on_readable(Connection& conn);
  /// Flushes the write queue; false when the connection was closed.
  bool flush(Connection& conn);
  void update_interest(Connection& conn);
  /// Enqueues an encoded buffer. `reserved` marks bytes the executor
  /// already charged against the gate. Returns the flush result: false
  /// when the connection was closed — callers on the loop thread must
  /// not touch `conn` afterwards.
  bool enqueue_out(Connection& conn, Bytes buffer, bool reserved);
  /// Loop-originated error reply, subject to the same write budget as
  /// executor responses; false when the connection was closed (budget
  /// exceeded or fatal send error) — `conn` is gone on false.
  bool send_error_from_loop(Connection& conn, std::uint64_t request_id,
                            ErrorCode code, const std::string& message);
  void close_conn(std::uint64_t conn_id);
  void sweep_idle();
  void check_drain();

  // --- HTTP exposition (loop thread) -------------------------------------
  void open_http_listener();
  void on_http_accept();
  void on_http_event(std::uint64_t conn_id, std::uint32_t events);
  /// Parses the buffered request once complete and queues the response.
  void http_respond(HttpConn& conn);
  /// Writes queued response bytes; closes when done or on error.
  void http_flush(HttpConn& conn);
  void close_http_conn(std::uint64_t conn_id);
  std::string http_body_healthz(int& status) const;

  // --- executor side ----------------------------------------------------
  void exec_push(ExecItem item);
  void executor_loop();
  void handle_request(const ExecItem& item);
  /// Gate-aware send of one encoded frame; false when the connection is
  /// gone or stalled out (streaming ops abort on false).
  bool exec_send_encoded(const ExecItem& item, Bytes buffer);
  bool exec_send(const ExecItem& item, const Frame& frame) {
    return exec_send_encoded(item, encode_frame(frame));
  }
  /// Streams a file as GET_DATA frames whose payloads the FileReader
  /// writes in place behind each header, then GET_END.
  void handle_get(const ExecItem& item, PayloadReader& req);

  static Frame error_frame(std::uint64_t request_id, ErrorCode code,
                           const std::string& message);

  tools::Archive* archive_;
  ServerConfig config_;
  EventLoop loop_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int http_listen_fd_ = -1;
  std::uint16_t http_port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::uint64_t, std::unique_ptr<HttpConn>> http_conns_;
  std::size_t inflight_total_ = 0;  // loop thread only
  bool draining_ = false;
  Clock::time_point drain_deadline_{};

  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::deque<ExecItem> exec_queue_;
  std::thread executor_;
  /// Executor-thread-only: open streamed ingest per connection.
  std::unordered_map<std::uint64_t, tools::FileWriter> puts_;

  obs::Counter* conn_accepted_;
  obs::Counter* conn_closed_;
  obs::Gauge* conn_active_;
  obs::Counter* req_count_;
  obs::Counter* req_rejected_;
  obs::Counter* req_bytes_in_;
  obs::Counter* req_bytes_out_;
  std::map<std::uint16_t, obs::Histogram*> req_latency_us_;
  obs::Counter* http_requests_;
  /// Health gauges read (atomically) by GET /healthz; shared with the
  /// archive's HealthMonitor through the global registry.
  obs::Gauge* health_vulnerable_;
  obs::Gauge* health_data_missing_;
  obs::Gauge* health_parity_missing_;
  obs::Gauge* health_min_margin_;
};

}  // namespace aec::net
