#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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
    conn->gate->closed = true;
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
    if (!conn->write_queue.empty()) return;
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
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
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
    conn.parser.feed(BytesView(buf, static_cast<std::size_t>(n)));

    // Bytes in = what the parser consumed per frame: the AEC1 or AEC2
    // header plus the payload.
    std::size_t buffered = conn.parser.buffered();
    while (auto frame = conn.parser.next()) {
      req_bytes_in_->add(buffered - conn.parser.buffered());
      buffered = conn.parser.buffered();
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
  std::size_t written = 0;
  bool fatal = false;
  while (!conn.write_queue.empty()) {
    const Bytes& front = conn.write_queue.front();
    const ssize_t n =
        ::send(conn.fd, front.data() + conn.write_offset,
               front.size() - conn.write_offset, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      conn.write_offset += static_cast<std::size_t>(n);
      if (conn.write_offset == front.size()) {
        conn.write_queue.pop_front();
        conn.write_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fatal = true;
    break;
  }
  if (written > 0) {
    req_bytes_out_->add(written);
    std::lock_guard lock(conn.gate->mu);
    conn.gate->queued -= written;
    conn.gate->cv.notify_all();
  }
  const std::uint64_t conn_id = conn.id;
  if (fatal) {
    close_conn(conn_id);
    return false;
  }
  if (conn.write_queue.empty() && conn.close_after_flush) {
    close_conn(conn_id);
    return false;
  }
  update_interest(conn);
  if (draining_) check_drain();
  return true;
}

void Server::update_interest(Connection& conn) {
  const bool want = !conn.write_queue.empty();
  if (want == conn.want_write) return;
  conn.want_write = want;
  loop_.modify(conn.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
}

bool Server::enqueue_out(Connection& conn, Bytes buffer, bool reserved) {
  if (!reserved) {
    std::lock_guard lock(conn.gate->mu);
    conn.gate->queued += buffer.size();
  }
  conn.write_queue.push_back(std::move(buffer));
  conn.last_activity = Clock::now();
  // Opportunistic immediate write; arms EPOLLOUT otherwise. May close
  // the connection (fatal send error, close_after_flush drained).
  return flush(conn);
}

bool Server::send_error_from_loop(Connection& conn, std::uint64_t request_id,
                                  ErrorCode code,
                                  const std::string& message) {
  Bytes buffer = encode_frame(error_frame(request_id, code, message));
  std::size_t queued;
  {
    std::lock_guard lock(conn.gate->mu);
    queued = conn.gate->queued;
  }
  if (queued + buffer.size() > config_.write_queue_limit) {
    // A lane blocks on the gate when it exceeds the budget; the
    // loop cannot. A client that streams rejected frames while never
    // reading replies would otherwise grow the queue without bound —
    // drop it instead.
    close_conn(conn.id);
    return false;
  }
  return enqueue_out(conn, std::move(buffer), /*reserved=*/false);
}

void Server::close_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  {
    std::lock_guard lock(conn.gate->mu);
    conn.gate->closed = true;
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
    if (conn->inflight == 0 && conn->write_queue.empty() &&
        conn->last_activity < cutoff)
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

bool Server::exec_send_encoded(const ExecItem& item, Bytes buffer) {
  {
    std::unique_lock lock(item.gate->mu);
    const bool ok = item.gate->cv.wait_for(
        lock, std::chrono::milliseconds(config_.write_stall_timeout_ms),
        [&] {
          return item.gate->closed ||
                 item.gate->queued + buffer.size() <=
                     config_.write_queue_limit;
        });
    if (item.gate->closed) return false;
    if (!ok) {
      // The client stopped reading; it may not park its lane.
      lock.unlock();
      obs::Logger::global().warn(
          "net", "dropping stalled connection: write budget blocked past "
                 "write_stall_timeout_ms",
          item.frame.request_id);
      const std::uint64_t conn_id = item.conn_id;
      loop_.post([this, conn_id] { close_conn(conn_id); });
      return false;
    }
    item.gate->queued += buffer.size();
  }
  const std::uint64_t conn_id = item.conn_id;
  loop_.post([this, conn_id, buf = std::move(buffer)]() mutable {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // raced with close; gate closed too
    enqueue_out(*it->second, std::move(buf), /*reserved=*/true);
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
    reply = error_frame(id, ErrorCode::kCheckFailed, e.what());
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
  for (;;) {
    // Size the frame up front, then let the reader copy the payload
    // straight from the decoded blocks into place behind the header:
    // one copy per served byte.
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        config_.get_chunk_bytes,
        reader.size_bytes() - reader.bytes_delivered()));
    Bytes buffer;
    buffer.reserve(header_size(trace) + n);
    encode_header(static_cast<std::uint16_t>(Op::kGetData), id, trace, n,
                  buffer);
    const std::optional<std::size_t> got = reader.read_into(buffer, n);
    if (!got) {
      Frame err = error_frame(id, ErrorCode::kNotFound,
                              "irrecoverable content in file: " + name);
      err.trace_id = trace;
      exec_send(item, err);
      return;
    }
    if (*got == 0) break;  // EOF
    if (!exec_send_encoded(item, std::move(buffer))) return;  // client gone
  }
  PayloadWriter w;
  w.u64(reader.bytes_delivered());
  Frame end{static_cast<std::uint16_t>(Op::kGetEnd), id, w.take()};
  end.trace_id = trace;
  exec_send(item, end);
}

}  // namespace aec::net
