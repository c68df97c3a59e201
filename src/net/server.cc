#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "tools/archive.h"

namespace aec::net {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// One-shot HTTP/1.1 response; Connection: close is the protocol here.
std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Bound on buffered request-header bytes before the peer is dropped.
constexpr std::size_t kHttpMaxRequest = 16u << 10;

struct SendResult {
  std::size_t sent = 0;  // leading bytes of the parts the socket took
  bool fatal = false;    // the socket failed (not merely full)
};

/// Sends the parts, in order, with gathered non-blocking sendmsg calls
/// (IOV_MAX parts per call) until they are all out or the socket is
/// full.
SendResult send_gathered(int fd, std::span<const BytesView> parts) {
  SendResult result;
  std::array<iovec, IOV_MAX> iov;  // only the first `count` are read
  std::size_t part = 0;  // first part not yet wholly sent
  std::size_t off = 0;   // bytes of parts[part] already sent
  for (;;) {
    std::size_t count = 0;
    std::size_t offered = 0;
    for (std::size_t k = part; k < parts.size() && count < iov.size(); ++k) {
      const std::size_t skip = k == part ? off : 0;
      if (parts[k].size() == skip) continue;
      // iovec's base is non-const for readv's sake; sendmsg only reads.
      iov[count++] = {const_cast<std::uint8_t*>(parts[k].data()) + skip,
                      parts[k].size() - skip};
      offered += parts[k].size() - skip;
    }
    if (count == 0) return result;  // all sent
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      result.fatal = errno != EAGAIN && errno != EWOULDBLOCK;
      return result;
    }
    result.sent += static_cast<std::size_t>(n);
    for (std::size_t left = static_cast<std::size_t>(n); left > 0;) {
      const std::size_t step = std::min(left, parts[part].size() - off);
      left -= step;
      off += step;
      if (off == parts[part].size()) {
        ++part;
        off = 0;
      }
    }
    // A short send means the socket is full: the rest waits for EPOLLOUT.
    if (static_cast<std::size_t>(n) < offered) return result;
  }
}

}  // namespace

Server::Server(tools::Archive* archive, ServerConfig config)
    : archive_(archive), config_(std::move(config)) {
  auto& reg = obs::MetricsRegistry::global();
  conn_accepted_ = reg.counter("net.conn.accepted");
  conn_closed_ = reg.counter("net.conn.closed");
  conn_active_ = reg.gauge("net.conn.active");
  req_count_ = reg.counter("net.req.count");
  req_rejected_ = reg.counter("net.req.rejected");
  req_bytes_in_ = reg.counter("net.req.bytes_in");
  req_bytes_out_ = reg.counter("net.req.bytes_out");
  for (const std::uint16_t op :
       {static_cast<std::uint16_t>(Op::kPing),
        static_cast<std::uint16_t>(Op::kStat),
        static_cast<std::uint16_t>(Op::kMetrics),
        static_cast<std::uint16_t>(Op::kScrub),
        static_cast<std::uint16_t>(Op::kList),
        static_cast<std::uint16_t>(Op::kPutBegin),
        static_cast<std::uint16_t>(Op::kPutChunk),
        static_cast<std::uint16_t>(Op::kPutEnd),
        static_cast<std::uint16_t>(Op::kGetFile),
        static_cast<std::uint16_t>(Op::kNodeFail),
        static_cast<std::uint16_t>(Op::kNodeHeal),
        static_cast<std::uint16_t>(Op::kNodeRebuild)}) {
    req_latency_us_[op] =
        reg.histogram(std::string("net.req.latency_us.") + op_name(op),
                      obs::Histogram::latency_bounds_us());
  }
  http_requests_ = reg.counter("net.http.requests");
  // Registry lookups dedup by name: these are the same gauge objects the
  // archive's HealthMonitor publishes into (or zeros if it never does).
  health_vulnerable_ = reg.gauge("health.vulnerable_blocks");
  health_data_missing_ = reg.gauge("health.data_missing");
  health_parity_missing_ = reg.gauge("health.parity_missing");
  health_min_margin_ = reg.gauge("health.min_margin");

  lanes_.resize(1 + archive_->threads());  // writer + one read lane per worker
  for (auto& lane : lanes_) lane = std::make_unique<Lane>();
  open_listener();
  if (config_.http_port >= 0) open_http_listener();
  loop_.set_tick(250, [this] {
    sweep_idle();
    if (draining_) {
      if (Clock::now() >= drain_deadline_) loop_.stop();
      check_drain();
    }
  });
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_listen_fd_ >= 0) ::close(http_listen_fd_);
  for (auto& [id, conn] : conns_)
    if (conn->fd >= 0) ::close(conn->fd);
  for (auto& [id, conn] : http_conns_)
    if (conn->fd >= 0) ::close(conn->fd);
}

void Server::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  AEC_CHECK_MSG(listen_fd_ >= 0, "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  AEC_CHECK_MSG(
      ::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
      "bad bind address '" << config_.bind_address << "'");
  AEC_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "bind " << config_.bind_address << ":" << config_.port << ": "
                        << std::strerror(errno));
  AEC_CHECK_MSG(::listen(listen_fd_, 128) == 0,
                "listen: " << std::strerror(errno));

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  AEC_CHECK_MSG(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                              &len) == 0,
                "getsockname: " << std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

void Server::run() {
  loop_.run();

  // Past this point nothing reads sockets; unblock and stop the lanes
  // that started, then tear the connections down.
  for (auto& [id, conn] : conns_) {
    std::lock_guard lock(conn->gate->mu);
    conn->gate->fd = -1;
    conn->gate->cv.notify_all();
  }
  for (std::size_t k = 0; k < lanes_.size(); ++k)
    if (lanes_[k]->thread.joinable())
      lane_push(k, ExecItem{ExecItem::Kind::kStop, 0, {}, nullptr, {}});
  for (auto& lane : lanes_)
    if (lane->thread.joinable()) lane->thread.join();
  for (auto& [id, conn] : conns_) {
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
    conn_closed_->add();
    conn_active_->add(-1);
  }
  conns_.clear();
  for (auto& [id, conn] : http_conns_) {
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
  }
  http_conns_.clear();
}

void Server::shutdown() {
  loop_.post([this] {
    if (draining_) return;
    draining_ = true;
    drain_deadline_ =
        Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
    if (listen_fd_ >= 0) {
      loop_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (http_listen_fd_ >= 0) {
      loop_.remove(http_listen_fd_);
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
    }
    check_drain();
  });
}

void Server::check_drain() {
  if (!draining_) return;
  if (inflight_total_ > 0) return;
  for (const auto& [id, conn] : conns_)
    if (queued_bytes(*conn) > 0) return;
  loop_.stop();
}

// --- reactor: accept / read / write -------------------------------------

void Server::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_unique<Connection>(config_.max_payload);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->gate = std::make_shared<WriteGate>();
    conn->gate->fd = fd;
    conn->last_activity = Clock::now();
    const std::uint64_t id = conn->id;
    loop_.add(fd, EPOLLIN,
              [this, id](std::uint32_t events) { on_conn_event(id, events); });
    conns_.emplace(id, std::move(conn));
    conn_accepted_->add();
    conn_active_->add(1);
  }
}

void Server::on_conn_event(std::uint64_t conn_id, std::uint32_t events) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    if (!flush(conn)) return;  // connection closed under us
  }
  if (events & EPOLLIN) on_readable(conn);
}

void Server::on_readable(Connection& conn) {
  const std::uint64_t conn_id = conn.id;
  std::uint8_t discard[4096];
  for (;;) {
    // Straight into the request frame's payload once its header is in;
    // a poisoned parser's connection drains into `discard` until the
    // error reply has flushed.
    std::span<std::uint8_t> into = conn.parser.prepare(kMaxRecvBytes);
    if (into.empty()) into = discard;
    const ssize_t n = ::recv(conn.fd, into.data(), into.size(), 0);
    if (n == 0) {
      close_conn(conn_id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(conn_id);
      return;
    }
    conn.last_activity = Clock::now();
    if (conn.close_after_flush) continue;  // drain-and-discard
    conn.parser.commit(static_cast<std::size_t>(n));

    while (auto frame = conn.parser.next()) {
      // The AEC1 or AEC2 header the frame really carried, plus payload.
      req_bytes_in_->add(conn.parser.frame_bytes());
      req_count_->add();
      if (!is_request_op(frame->op)) {
        req_rejected_->add();
        if (!send_error_from_loop(conn, frame->request_id,
                                  ErrorCode::kUnknownOp,
                                  std::string("unknown opcode ") +
                                      std::to_string(frame->op)))
          return;  // connection closed under us
        continue;
      }
      if (draining_) {
        req_rejected_->add();
        if (!send_error_from_loop(conn, frame->request_id,
                                  ErrorCode::kShuttingDown,
                                  "server is draining"))
          return;
        continue;
      }
      if (inflight_total_ >= config_.max_inflight) {
        req_rejected_->add();
        if (!send_error_from_loop(conn, frame->request_id, ErrorCode::kBusy,
                                  "server at max in-flight requests"))
          return;
        continue;
      }
      ++inflight_total_;
      ++conn.inflight;
      ExecItem item;
      item.kind = ExecItem::Kind::kRequest;
      item.conn_id = conn_id;
      item.frame = std::move(*frame);
      item.gate = conn.gate;
      item.enqueued = Clock::now();
      dispatch(conn, std::move(item));
    }
    if (conn.parser.error()) {
      // The stream cannot be re-synchronized: answer with a typed
      // framing error (request id 0 — no frame to attribute it to),
      // flush, and drop the connection.
      if (!send_error_from_loop(conn, 0, ErrorCode::kBadFrame,
                                conn.parser.error_text()))
        return;
      conn.close_after_flush = true;
      if (!flush(conn)) return;
    }
  }
}

bool Server::flush(Connection& conn) {
  WriteGate& gate = *conn.gate;
  std::size_t written = 0;
  std::size_t errors_written = 0;  // of `written`, error-reply bytes
  bool fatal = false;
  bool drained = false;
  {
    // Under the gate mutex: a lane sends only while nothing is queued,
    // and never while this writes.
    std::lock_guard lock(gate.mu);
    while (!gate.queue.empty()) {
      const WriteGate::Pending& front = gate.queue.front();
      const ssize_t n =
          ::send(conn.fd, front.bytes.data() + gate.offset,
                 front.bytes.size() - gate.offset, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        if (front.error_reply) errors_written += static_cast<std::size_t>(n);
        gate.offset += static_cast<std::size_t>(n);
        if (gate.offset == front.bytes.size()) {
          gate.queue.pop_front();
          gate.offset = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fatal = true;
      break;
    }
    gate.queued -= written;
    gate.error_queued -= errors_written;
    drained = gate.queue.empty();
    if (written > 0) gate.cv.notify_all();
  }
  if (written > 0) req_bytes_out_->add(written);
  const std::uint64_t conn_id = conn.id;
  if (fatal) {
    close_conn(conn_id);
    return false;
  }
  if (drained && conn.close_after_flush) {
    close_conn(conn_id);
    return false;
  }
  update_interest(conn, !drained);
  if (draining_) check_drain();
  return true;
}

void Server::update_interest(Connection& conn, bool want_write) {
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  loop_.modify(conn.fd, EPOLLIN | (want_write ? EPOLLOUT : 0u));
}

std::size_t Server::queued_bytes(const Connection& conn) {
  std::lock_guard lock(conn.gate->mu);
  return conn.gate->queued;
}

bool Server::send_error_from_loop(Connection& conn, std::uint64_t request_id,
                                  ErrorCode code,
                                  const std::string& message) {
  Bytes buffer = encode_frame(error_frame(request_id, code, message));
  bool over_budget = false;
  {
    WriteGate& gate = *conn.gate;
    std::lock_guard lock(gate.mu);
    // Only the reactor's own unsent replies count here: the GET frames
    // a lane left queued are bounded by the lane's own budget wait, and
    // counting them would drop a reader whose GET fills the budget.
    if (gate.error_queued + buffer.size() > config_.write_queue_limit) {
      over_budget = true;
    } else {
      // Behind whatever the lane left queued; flush() writes it.
      gate.queued += buffer.size();
      gate.error_queued += buffer.size();
      gate.queue.push_back({std::move(buffer), true});
    }
  }
  if (over_budget) {
    // A lane blocks on the gate when it exceeds the budget; the
    // loop cannot. A client that streams rejected frames while never
    // reading replies would otherwise grow the queue without bound —
    // drop it instead.
    close_conn(conn.id);
    return false;
  }
  conn.last_activity = Clock::now();
  // Writes at once if the socket takes it; arms EPOLLOUT otherwise. May
  // close the connection (fatal send error, close_after_flush drained).
  return flush(conn);
}

void Server::close_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  {
    // Before ::close: a lane never writes to a closed or reused fd.
    std::lock_guard lock(conn.gate->mu);
    conn.gate->fd = -1;
    conn.gate->queue.clear();
    conn.gate->offset = 0;
    conn.gate->queued = 0;
    conn.gate->error_queued = 0;
    conn.gate->cv.notify_all();
  }
  loop_.remove(conn.fd);
  ::close(conn.fd);
  conn.fd = -1;
  conn_closed_->add();
  conn_active_->add(-1);
  // Tell the writer lane so it can drop any open PUT session. Requests
  // from this connection already queued still execute; their responses
  // are discarded at the (closed) gate. Parked ones never run.
  inflight_total_ -= conn.parked.size();
  lane_push(kWriterLane,
            ExecItem{ExecItem::Kind::kConnClosed, conn_id, {}, nullptr, {}});
  conns_.erase(it);
  if (draining_) check_drain();
}

void Server::sweep_idle() {
  if (config_.idle_timeout_ms <= 0) return;
  const auto cutoff =
      Clock::now() - std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<std::uint64_t> victims;
  for (const auto& [id, conn] : conns_)
    if (conn->inflight == 0 && conn->last_activity < cutoff &&
        queued_bytes(*conn) == 0)
      victims.push_back(id);
  for (const std::uint64_t id : victims) close_conn(id);
  victims.clear();
  for (const auto& [id, conn] : http_conns_)
    if (conn->last_activity < cutoff) victims.push_back(id);
  for (const std::uint64_t id : victims) close_http_conn(id);
}

// --- HTTP exposition ------------------------------------------------------

void Server::open_http_listener() {
  http_listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  AEC_CHECK_MSG(http_listen_fd_ >= 0, "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(http_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.http_port));
  AEC_CHECK_MSG(
      ::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
      "bad bind address '" << config_.bind_address << "'");
  AEC_CHECK_MSG(::bind(http_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "bind " << config_.bind_address << ":" << config_.http_port
                        << " (http): " << std::strerror(errno));
  AEC_CHECK_MSG(::listen(http_listen_fd_, 64) == 0,
                "listen (http): " << std::strerror(errno));

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  AEC_CHECK_MSG(::getsockname(http_listen_fd_,
                              reinterpret_cast<sockaddr*>(&bound), &len) == 0,
                "getsockname (http): " << std::strerror(errno));
  http_port_ = ntohs(bound.sin_port);

  loop_.add(http_listen_fd_, EPOLLIN,
            [this](std::uint32_t) { on_http_accept(); });
}

void Server::on_http_accept() {
  for (;;) {
    const int fd = ::accept4(http_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (http_conns_.size() >= 32) {  // scrapers, not clients: keep it small
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<HttpConn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = Clock::now();
    const std::uint64_t id = conn->id;
    loop_.add(fd, EPOLLIN,
              [this, id](std::uint32_t events) { on_http_event(id, events); });
    http_conns_.emplace(id, std::move(conn));
  }
}

void Server::on_http_event(std::uint64_t conn_id, std::uint32_t events) {
  const auto it = http_conns_.find(conn_id);
  if (it == http_conns_.end()) return;
  HttpConn& conn = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_http_conn(conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    http_flush(conn);
    return;  // conn may be gone; EPOLLIN after respond is irrelevant
  }
  if (!(events & EPOLLIN)) return;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) {
      close_http_conn(conn_id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_http_conn(conn_id);
      return;
    }
    conn.last_activity = Clock::now();
    if (conn.responded) continue;  // drain pipelined bytes, ignore
    conn.in.append(buf, static_cast<std::size_t>(n));
    if (conn.in.size() > kHttpMaxRequest) {
      close_http_conn(conn_id);
      return;
    }
  }
  if (!conn.responded && conn.in.find("\r\n\r\n") != std::string::npos)
    http_respond(conn);
}

std::string Server::http_body_healthz(int& status) const {
  const std::int64_t vulnerable = health_vulnerable_->value();
  const std::int64_t data_missing = health_data_missing_->value();
  const std::int64_t parity_missing = health_parity_missing_->value();
  const char* state = "ok";
  status = 200;
  if (data_missing + parity_missing > 0) {
    state = "degraded";
    status = 503;
  }
  if (vulnerable > 0) {
    state = "vulnerable";
    status = 503;
  }
  std::string body = "{\"status\":\"";
  body += state;
  body += "\",\"vulnerable_blocks\":";
  body += std::to_string(vulnerable);
  body += ",\"data_missing\":";
  body += std::to_string(data_missing);
  body += ",\"parity_missing\":";
  body += std::to_string(parity_missing);
  body += ",\"min_margin\":";
  body += std::to_string(health_min_margin_->value());
  body += "}\n";
  return body;
}

void Server::http_respond(HttpConn& conn) {
  http_requests_->add();
  conn.responded = true;
  const std::size_t line_end = conn.in.find("\r\n");
  const std::string line = conn.in.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? std::string() : line.substr(0, sp1);
  std::string target = sp2 == std::string::npos
                           ? std::string()
                           : line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query;
  if (const std::size_t q = target.find('?'); q != std::string::npos) {
    query = target.substr(q + 1);
    target.resize(q);
  }

  if (method != "GET") {
    conn.out = http_response(405, "Method Not Allowed", "text/plain",
                             "only GET here\n");
  } else if (target == "/metrics") {
    conn.out = http_response(
        200, "OK", "text/plain; version=0.0.4; charset=utf-8",
        obs::MetricsRegistry::global().snapshot().to_prometheus());
  } else if (target == "/healthz") {
    int status = 200;
    const std::string body = http_body_healthz(status);
    conn.out = http_response(status, status == 200 ? "OK"
                                                   : "Service Unavailable",
                             "application/json", body);
  } else if (target == "/trace") {
    std::uint64_t request_id = 0;
    const std::string key = "request_id=";
    if (const std::size_t at = query.find(key); at != std::string::npos) {
      const char* p = query.c_str() + at + key.size();
      request_id = std::strtoull(p, nullptr, 10);
    }
    conn.out = http_response(
        200, "OK", "application/x-ndjson",
        obs::TraceRing::global().dump_jsonl_string(request_id));
  } else {
    conn.out = http_response(404, "Not Found", "text/plain",
                             "try /metrics, /healthz or /trace\n");
  }
  conn.in.clear();
  http_flush(conn);
}

void Server::http_flush(HttpConn& conn) {
  const std::uint64_t conn_id = conn.id;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify(conn.fd, EPOLLIN | EPOLLOUT);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_http_conn(conn_id);
    return;
  }
  if (conn.responded) close_http_conn(conn_id);  // one-shot: done
}

void Server::close_http_conn(std::uint64_t conn_id) {
  const auto it = http_conns_.find(conn_id);
  if (it == http_conns_.end()) return;
  loop_.remove(it->second->fd);
  ::close(it->second->fd);
  it->second->fd = -1;
  http_conns_.erase(it);
}

// --- lane dispatch ---------------------------------------------------------

void Server::dispatch(Connection& conn, ExecItem item) {
  conn.parked.push_back(std::move(item));
  release_parked(conn);
}

void Server::release_parked(Connection& conn) {
  while (!conn.parked.empty()) {
    const bool read = conn.parked.front().frame.op ==
                      static_cast<std::uint16_t>(Op::kGetFile);
    const std::size_t on_lane = conn.inflight - conn.parked.size();
    // Replies keep request order: a writer-lane op waits for the
    // connection's requests on a read lane.
    if (on_lane > 0 && !read && conn.lane != kWriterLane) return;
    if (on_lane == 0) conn.lane = read ? least_loaded_lane() : kWriterLane;
    ++lanes_[conn.lane]->load;
    lane_push(conn.lane, std::move(conn.parked.front()));
    conn.parked.pop_front();
  }
}

std::size_t Server::least_loaded_lane() const {
  std::size_t best = kWriterLane;
  for (std::size_t k = 1; k < lanes_.size(); ++k)
    if (lanes_[k]->load < lanes_[best]->load) best = k;
  return best;
}

void Server::on_request_done(std::uint64_t conn_id, std::size_t lane) {
  --inflight_total_;
  --lanes_[lane]->load;
  const auto it = conns_.find(conn_id);
  if (it != conns_.end()) {
    Connection& conn = *it->second;
    --conn.inflight;
    // The lane wrote the replies itself, out of the reactor's sight.
    conn.last_activity = Clock::now();
    release_parked(conn);
  }
  if (draining_) check_drain();
}

// --- lanes ------------------------------------------------------------------

void Server::lane_push(std::size_t lane, ExecItem item) {
  Lane& target = *lanes_[lane];
  // A lane starts on its first item, so a server with one client runs on
  // one lane thread. An idle lane is not free: its thread still touches
  // the allocator when it exits, which changes which malloc arena the
  // next archive's threads reuse — with idle read lanes, perfbench
  // ingest's peak RSS rose from about 1190 to 1500 MiB in half the runs
  // (4-core host).
  if (!target.thread.joinable())
    target.thread = std::thread([this, lane] { lane_loop(lane); });
  {
    std::lock_guard lock(target.mu);
    target.queue.push_back(std::move(item));
  }
  target.cv.notify_one();
}

void Server::lane_loop(std::size_t lane) {
  Lane& self = *lanes_[lane];
  for (;;) {
    ExecItem item;
    {
      std::unique_lock lock(self.mu);
      self.cv.wait(lock, [&] { return !self.queue.empty(); });
      item = std::move(self.queue.front());
      self.queue.pop_front();
    }
    switch (item.kind) {
      case ExecItem::Kind::kStop:
        // Abandons any open ingest (FileWriter dtor): the writer lane's.
        if (lane == kWriterLane) puts_.clear();
        return;
      case ExecItem::Kind::kConnClosed:  // writer lane only
        puts_.erase(item.conn_id);
        break;
      case ExecItem::Kind::kRequest: {
        handle_request(item);
        const std::uint64_t conn_id = item.conn_id;
        loop_.post([this, conn_id, lane] { on_request_done(conn_id, lane); });
        break;
      }
    }
  }
}

Frame Server::error_frame(std::uint64_t request_id, ErrorCode code,
                          const std::string& message) {
  PayloadWriter w;
  w.u16(static_cast<std::uint16_t>(code));
  w.str(message);
  return Frame{static_cast<std::uint16_t>(Op::kError), request_id, w.take()};
}

bool Server::exec_send(const ExecItem& item,
                       std::span<const BytesView> parts) {
  std::size_t total = 0;
  for (const BytesView part : parts) total += part.size();
  WriteGate& gate = *item.gate;
  const std::uint64_t conn_id = item.conn_id;
  std::unique_lock lock(gate.mu);
  const bool ok = gate.cv.wait_for(
      lock, std::chrono::milliseconds(config_.write_stall_timeout_ms), [&] {
        return gate.fd < 0 ||
               gate.queued + total <= config_.write_queue_limit;
      });
  if (gate.fd < 0) return false;
  if (!ok) {
    // The client stopped reading; it may not park its lane.
    lock.unlock();
    obs::Logger::global().warn(
        "net", "dropping stalled connection: write budget blocked past "
               "write_stall_timeout_ms",
        item.frame.request_id);
    loop_.post([this, conn_id] { close_conn(conn_id); });
    return false;
  }
  // Only while the reactor holds nothing for this connection may the
  // frame go out from here, and the mutex stays held until sendmsg
  // returns: no other write lands between earlier bytes and these.
  SendResult result;
  if (gate.queued == 0) result = send_gathered(gate.fd, parts);
  if (result.fatal) {
    lock.unlock();
    req_bytes_out_->add(result.sent);
    loop_.post([this, conn_id] { close_conn(conn_id); });
    return false;
  }
  const bool remainder = result.sent < total;
  if (remainder) {
    // What the socket did not take (all of it while the reactor holds
    // earlier bytes) is copied for the reactor, charged to the budget;
    // the connection's later replies queue behind it.
    Bytes rest;
    rest.reserve(total - result.sent);
    std::size_t skip = result.sent;
    for (const BytesView part : parts) {
      const std::size_t from = std::min(skip, part.size());
      skip -= from;
      rest.insert(rest.end(), part.begin() + static_cast<std::ptrdiff_t>(from),
                  part.end());
    }
    gate.queued += rest.size();
    gate.queue.push_back({std::move(rest)});
  }
  lock.unlock();
  if (result.sent > 0) req_bytes_out_->add(result.sent);
  if (remainder)
    loop_.post([this, conn_id] {
      const auto it = conns_.find(conn_id);
      if (it != conns_.end()) flush(*it->second);  // or arms EPOLLOUT
    });
  return true;
}

void Server::handle_request(const ExecItem& item) {
  obs::TraceSpan span("net.request");
  span.set_args(item.frame.op, item.frame.payload.size());
  span.set_label(op_name(item.frame.op));
  // Adopt the client's wire-propagated trace id so both ends' spans
  // share one correlation id; untraced clients fall back to the
  // per-frame request id.
  span.set_request_id(item.frame.trace_id != 0 ? item.frame.trace_id
                                               : item.frame.request_id);
  const std::uint64_t id = item.frame.request_id;
  const auto reply_op = static_cast<std::uint16_t>(Op::kReply);
  PayloadReader req(item.frame.payload);
  Frame reply{reply_op, id, {}};
  bool streamed = false;

  try {
    switch (static_cast<Op>(item.frame.op)) {
      case Op::kPing:
        req.expect_done();
        break;
      case Op::kStat: {
        const bool include_metrics = req.u8() != 0;
        req.expect_done();
        PayloadWriter w;
        w.str(archive_->stat_json(include_metrics));
        reply.payload = w.take();
        break;
      }
      case Op::kMetrics: {
        req.expect_done();
        PayloadWriter w;
        w.str(archive_->metrics().to_json());
        reply.payload = w.take();
        break;
      }
      case Op::kScrub: {
        req.expect_done();
        const tools::ScrubReport report = archive_->scrub();
        PayloadWriter w;
        w.u64(report.repair.nodes_repaired_total);
        w.u64(report.repair.edges_repaired_total);
        w.u32(report.repair.rounds);
        w.u64(report.repair.nodes_unrecovered +
              report.repair.edges_unrecovered);
        w.u64(report.inconsistent_parities);
        reply.payload = w.take();
        break;
      }
      case Op::kList: {
        req.expect_done();
        const std::vector<tools::FileEntry> files = archive_->files();
        PayloadWriter w;
        w.u32(static_cast<std::uint32_t>(files.size()));
        for (const tools::FileEntry& entry : files) {
          w.str(entry.name);
          w.u64(entry.bytes);
          w.u64(entry.first_block);
        }
        reply.payload = w.take();
        break;
      }
      case Op::kPutBegin: {
        const std::string name = req.str();
        req.expect_done();
        if (puts_.count(item.conn_id)) {
          reply = error_frame(id, ErrorCode::kBadState,
                              "PUT already open on this connection");
        } else if (!puts_.empty()) {
          // Only the writer lane opens writers, so a non-empty map IS the
          // "another FileWriter is open" condition — reject as retryable
          // busy instead of letting begin_file throw.
          reply = error_frame(id, ErrorCode::kBusy,
                              "another ingest is in progress");
        } else {
          puts_.emplace(item.conn_id, archive_->begin_file(name));
        }
        break;
      }
      case Op::kPutChunk: {
        const auto it = puts_.find(item.conn_id);
        if (it == puts_.end()) {
          reply = error_frame(id, ErrorCode::kBadState,
                              "PUT_CHUNK without PUT_BEGIN");
        } else {
          try {
            it->second.write(req.rest());
          } catch (...) {
            // A failed append poisons the writer (archive.h): drop it, so
            // the slot frees and a later PUT_END answers kBadState.
            puts_.erase(it);
            throw;
          }
        }
        break;
      }
      case Op::kPutEnd: {
        req.expect_done();
        auto node = puts_.extract(item.conn_id);
        if (node.empty()) {
          reply = error_frame(id, ErrorCode::kBadState,
                              "PUT_END without PUT_BEGIN");
        } else {
          // If close() throws, the writer dies with `node` and the file
          // is abandoned — same as a dropped connection.
          const tools::FileEntry& entry = node.mapped().close();
          PayloadWriter w;
          w.u64(entry.bytes);
          w.u64(entry.first_block);
          w.u64(entry.block_count(archive_->block_size()));
          reply.payload = w.take();
        }
        break;
      }
      case Op::kGetFile:
        // Set only once handle_get returns: a GET that throws (bad
        // payload, store failure) still gets its typed error reply.
        handle_get(item, req);
        streamed = true;
        break;
      case Op::kNodeFail: {
        const std::uint32_t node = req.u32();
        req.expect_done();
        archive_->fail_node(node);
        break;
      }
      case Op::kNodeHeal: {
        const std::uint32_t node = req.u32();
        req.expect_done();
        archive_->heal_node(node);
        break;
      }
      case Op::kNodeRebuild: {
        const std::uint32_t node = req.u32();
        req.expect_done();
        const RepairReport report = archive_->rebuild_node(node);
        PayloadWriter w;
        w.u64(report.blocks_repaired_total());
        w.u32(report.rounds);
        w.u64(report.nodes_unrecovered + report.edges_unrecovered);
        reply.payload = w.take();
        break;
      }
      default:
        reply = error_frame(id, ErrorCode::kUnknownOp, "unhandled opcode");
        break;
    }
  } catch (const ProtocolError& e) {
    reply = error_frame(id, ErrorCode::kBadPayload, e.what());
  } catch (const CheckError& e) {
    // The client gets the check's message; the full diagnostic (the
    // expression and its source line) stays in the daemon's log.
    obs::Logger::global().warn("net", e.what(), id);
    reply = error_frame(id, ErrorCode::kCheckFailed, e.message());
  } catch (const std::exception& e) {
    reply = error_frame(id, ErrorCode::kIo, e.what());
  }

  if (!streamed) {
    reply.trace_id = item.frame.trace_id;  // echo: replies stay correlated
    exec_send(item, reply);
  }
  const auto hist = req_latency_us_.find(item.frame.op);
  if (hist != req_latency_us_.end())
    hist->second->observe(elapsed_us(item.enqueued));
}

void Server::handle_get(const ExecItem& item, PayloadReader& req) {
  const std::uint64_t id = item.frame.request_id;
  const std::uint64_t trace = item.frame.trace_id;
  const std::string name = req.str();
  req.expect_done();
  std::optional<tools::FileReader> opened = archive_->try_open_reader(name);
  if (!opened) {
    Frame err = error_frame(id, ErrorCode::kNotFound, "no such file: " + name);
    err.trace_id = trace;
    exec_send(item, err);
    return;
  }
  tools::FileReader& reader = *opened;
  std::array<std::uint8_t, kHeaderSizeV2> header{};
  std::vector<BytesView> parts;  // the header, then the payload's views
  for (;;) {
    // Views of the decoded blocks, valid until the next read: the frame
    // goes out from them, so no byte is copied unless the socket
    // refuses part of it.
    const std::optional<std::span<const BytesView>> views =
        reader.read_views(config_.get_chunk_bytes);
    if (!views) {
      Frame err = error_frame(id, ErrorCode::kNotFound,
                              "irrecoverable content in file: " + name);
      err.trace_id = trace;
      exec_send(item, err);
      return;
    }
    if (views->empty()) break;  // EOF
    std::size_t n = 0;
    for (const BytesView view : *views) n += view.size();
    write_header(header.data(), static_cast<std::uint16_t>(Op::kGetData), id,
                 trace, n);
    parts.assign(1, BytesView(header.data(), header_size(trace)));
    parts.insert(parts.end(), views->begin(), views->end());
    if (!exec_send(item, parts)) return;  // client gone
  }
  PayloadWriter w;
  w.u64(reader.bytes_delivered());
  Frame end{static_cast<std::uint16_t>(Op::kGetEnd), id, w.take()};
  end.trace_id = trace;
  exec_send(item, end);
}

}  // namespace aec::net
