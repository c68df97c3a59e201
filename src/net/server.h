// aecd server core: one epoll reactor thread plus the archive lanes —
// one writer lane and one read lane per engine worker — serving an
// Archive over the framed protocol (protocol.h).
//
// Threading model
//   · The reactor thread (run()) owns every socket's reads and framing
//     state machine, its epoll interest, and closing it. It never
//     touches the archive or the disk: complete request frames are
//     dispatched to a lane's queue, and everything it does per byte is
//     O(1) buffer work.
//   · Replies leave from the lane that produced them. A lane sends a
//     frame itself when nothing is queued for its connection: under the
//     connection's WriteGate mutex, after the write-budget wait, it finds
//     `queued` == 0 and makes one gathered non-blocking sendmsg of the
//     frame's header and payload parts (a GET_DATA frame's payload is
//     views of the decoded blocks, so a frame the socket takes whole is
//     copied by nothing in user space). Whatever the socket does not
//     take is copied into the gate's queue, and the reactor writes it on
//     EPOLLOUT; the connection's later replies, the reactor's own error
//     replies included, queue behind it, so frames never interleave and
//     leave in order. Every write to a socket happens under its gate
//     mutex, and close_conn clears the gate's fd under it before
//     ::close, so no lane writes to a closed or reused fd.
//   · The lanes are the only threads that call into the Archive. Each
//     drains its own queue in FIFO order, and each operation fans out
//     across the shared Engine worker pool, waiting only on its own
//     completion groups. The writer lane runs every op except GET_FILE:
//     it alone owns the open PUT state (puts_), and the exclusive ops it
//     runs (scrub, node fail/heal/rebuild — archive.h) wait for the
//     GETs in flight on the read lanes. The read lanes, as many as the
//     engine has workers, serve GET_FILE beside the writer, as the
//     archive's one-writer/many-readers contract allows. A lane's thread
//     starts with its first request. Lane work never runs *as* a pool
//     task: an operation waiting on its group would then hold a worker
//     its own tasks may need.
//   · Per-connection FIFO: a connection's replies leave in request order
//     because all its in-flight requests run on one lane — a connection
//     with requests in flight stays on their lane (pipelined PUT_CHUNKs
//     rely on this). An idle connection's GET_FILE goes to the
//     least-loaded lane, the writer lane winning ties, so a lone client
//     (PUT, then a read-back GET) stays on one thread; every other op
//     goes to the writer lane. An op bound for the writer lane that
//     arrives while the connection's requests run on a read lane is
//     parked on the reactor until they finish.
//
// Flow control (three independent valves):
//   · Admission: at most `max_inflight` requests queued/executing
//     across all connections; excess requests get an immediate
//     ErrorCode::kBusy reply and never reach a lane.
//   · Per-connection write budget: a connection may have at most
//     `write_queue_limit` response bytes queued (written by neither a
//     lane's send nor the reactor yet). The lane serving it blocks
//     before sending more output for that connection (bounded
//     by `write_stall_timeout_ms`, after which the connection is
//     dropped — a client that stops reading cannot park its lane
//     forever, and other clients' GETs meanwhile run on other lanes).
//     The reactor cannot block, so it drops a connection instead once
//     its own unsent error replies would pass `write_queue_limit` (a
//     client that floods rejected frames and reads nothing); the
//     connection's queued GET data does not count against that guard.
//     So one connection holds at most twice `write_queue_limit` queued
//     bytes: lane output up to the limit, and the reactor's error
//     replies up to the limit again.
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
// wedged lane can never wedge the health endpoint.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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
  /// lane serving it blocks producing more for it. The reactor's own
  /// error replies may queue up to this much again before it drops the
  /// connection, so a connection holds at most twice this.
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
  /// `archive` must outlive the server. During run() the lanes call
  /// into it; other threads may too, within the archive's concurrency
  /// contract (archive.h).
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

  /// One connection's write side, shared by the lane serving it and the
  /// reactor (threading model): every write to the socket happens under
  /// `mu`, and the lane blocks on a write budget the reactor replenishes.
  struct WriteGate {
    std::mutex mu;
    std::condition_variable cv;
    int fd = -1;  // the socket; -1 once closed (set before ::close)
    /// Reply bytes the socket did not take at once, in wire order; only
    /// the reactor writes them.
    struct Pending {
      Bytes bytes;
      bool error_reply = false;  // the reactor's own (kBusy, kUnknownOp…)
    };
    std::deque<Pending> queue;
    std::size_t offset = 0;  // bytes of queue.front() already written
    std::size_t queued = 0;  // bytes in `queue` not yet written
    /// The part of `queued` in the reactor's own error replies: the
    /// bytes send_error_from_loop counts against write_queue_limit.
    std::size_t error_queued = 0;
  };

  struct ExecItem {
    enum class Kind { kRequest, kConnClosed, kStop };
    Kind kind = Kind::kRequest;
    std::uint64_t conn_id = 0;
    Frame frame;
    std::shared_ptr<WriteGate> gate;
    Clock::time_point enqueued{};
  };

  /// Reactor-thread-only connection state.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameParser parser;
    std::shared_ptr<WriteGate> gate;
    Clock::time_point last_activity{};
    std::size_t inflight = 0;  // admitted: parked, queued or executing
    std::size_t lane = 0;  // where its inflight - parked.size() others run
    /// Requests waiting, in arrival order, for the read lane to finish
    /// this connection's earlier requests (see the threading model).
    std::deque<ExecItem> parked;
    bool want_write = false;
    bool close_after_flush = false;

    explicit Connection(std::size_t max_payload) : parser(max_payload) {}
  };

  /// One archive-calling thread and its FIFO queue. lanes_[kWriterLane]
  /// is the writer lane; the rest are read lanes.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<ExecItem> queue;
    std::thread thread;    // started by the first lane_push (run()'s thread)
    std::size_t load = 0;  // loop thread only: requests queued/executing
  };
  static constexpr std::size_t kWriterLane = 0;

  /// Reactor-thread-only HTTP exposition connection: one request in,
  /// one response out, then close. No gate — responses are bounded
  /// (metrics/trace snapshots) and never touch a lane.
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
  /// Writes the gate's queue; false when the connection was closed —
  /// callers on the loop thread must not touch `conn` afterwards.
  bool flush(Connection& conn);
  void update_interest(Connection& conn, bool want_write);
  /// Reply bytes queued for the connection and not yet written.
  static std::size_t queued_bytes(const Connection& conn);
  /// Loop-originated error reply, queued behind the connection's other
  /// replies. The connection's unsent error replies may not pass the
  /// write budget (its queued GET data does not count); false when the
  /// connection was closed (budget exceeded or fatal send error) —
  /// `conn` is gone on false.
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

  // --- lane dispatch (loop thread) --------------------------------------
  /// Sends an admitted request to its lane, or parks it (threading model).
  void dispatch(Connection& conn, ExecItem item);
  /// Sends parked requests to their lanes, in order, until one must wait.
  void release_parked(Connection& conn);
  /// Least-loaded lane; the writer lane wins ties.
  std::size_t least_loaded_lane() const;
  /// A lane finished one of `conn_id`'s requests.
  void on_request_done(std::uint64_t conn_id, std::size_t lane);

  // --- lane side ----------------------------------------------------------
  /// Queues an item on a lane, starting the lane's thread on first use.
  /// Called only from run()'s thread.
  void lane_push(std::size_t lane, ExecItem item);
  void lane_loop(std::size_t lane);
  void handle_request(const ExecItem& item);
  /// The one send path: one frame, whose wire bytes are `parts` in
  /// order, sent from the lane (threading model) within the write
  /// budget. False when the connection is gone, failed or stalled out
  /// (streaming ops abort on false).
  bool exec_send(const ExecItem& item, std::span<const BytesView> parts);
  bool exec_send(const ExecItem& item, const Frame& frame) {
    const Bytes wire = encode_frame(frame);
    const BytesView part(wire);
    return exec_send(item, std::span<const BytesView>(&part, 1));
  }
  /// Streams a file as GET_DATA frames, each its header and the
  /// FileReader's views of the decoded blocks, then GET_END.
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

  /// Writer lane first, then one read lane per engine worker.
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Writer-lane-only: open streamed ingest per connection.
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
