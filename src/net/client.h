// Synchronous client for the aecd daemon — the library behind the aecc
// CLI and bench_net_load.
//
// One Client is one TCP connection running the protocol.h framing.
// Single-frame ops (ping/stat/metrics/scrub/list/node_*) are strict
// request→reply round-trips. put_stream() pipelines a bounded window of
// PUT_CHUNK frames before reading acks (the window stays well under the
// server's admission limit, so a lone uploader never trips kBusy);
// get() consumes the kGetData stream into a caller sink.
//
// Error model: a server kError reply throws RemoteError carrying the
// typed ErrorCode plus the server's message (CheckError text crosses
// the wire verbatim). Transport failures — connect/timeout/EOF/framing
// — throw CheckError. After an exception from a *streaming* op the
// connection's framing state is unspecified; drop the Client and
// reconnect. A failed PUT leaves the connection's PUT open (nothing is
// committed) until the connection closes, when the server abandons it.
// Single-frame ops leave the connection reusable.
//
// Not thread-safe: one Client per thread (bench_net_load opens one per
// worker).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/protocol.h"
#include "obs/trace.h"

namespace aec::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per socket send/recv timeout (SO_SNDTIMEO/SO_RCVTIMEO); 0 = block
  /// forever.
  int timeout_ms = 30'000;
  /// Stamp every frame of each logical op with a fresh trace id (frames
  /// switch to the AEC2 header) so daemon-side "net.request" spans adopt
  /// the same correlation id as the client's "net.client.request" span.
  /// Off by default: untraced frames stay byte-identical to old clients.
  bool trace = false;
};

/// A typed error reply from the server.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(to_string(code)) + ": " + message),
        code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

struct PutResult {
  std::uint64_t bytes = 0;
  std::uint64_t first_block = 0;
  std::uint64_t blocks = 0;
};

struct ScrubResult {
  std::uint64_t data_repaired = 0;
  std::uint64_t parity_repaired = 0;
  std::uint32_t rounds = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t inconsistent_parities = 0;
};

struct RebuildResult {
  std::uint64_t blocks_repaired = 0;
  std::uint32_t rounds = 0;
  std::uint64_t unrecovered = 0;
};

struct RemoteFileEntry {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t first_block = 0;
};

class Client {
 public:
  /// Connects immediately (CheckError on refusal/timeout).
  explicit Client(ClientConfig config);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void ping();
  std::string stat_json(bool include_metrics);
  std::string metrics_json();
  ScrubResult scrub();
  std::vector<RemoteFileEntry> list();

  /// Streaming ingest: `produce` fills `buf` with up to `cap` bytes and
  /// returns how many it wrote; 0 = EOF. `buf` sits right behind the
  /// PUT_CHUNK frame's header, so the chunk goes to the socket from
  /// there.
  using ChunkProducer =
      std::function<std::size_t(std::uint8_t* buf, std::size_t cap)>;
  PutResult put_stream(const std::string& name, const ChunkProducer& produce);
  PutResult put_bytes(const std::string& name, BytesView content);
  /// Streams the file at `path`; a read error throws CheckError (naming
  /// the path and errno) before PUT_END, so nothing is committed.
  PutResult put_file(const std::string& name,
                     const std::filesystem::path& path);

  /// Streaming read: `sink` receives each data chunk in order. Returns
  /// total bytes delivered. Throws RemoteError (kNotFound for unknown
  /// names / irrecoverable content).
  using ChunkSink = std::function<void(BytesView chunk)>;
  std::uint64_t get(const std::string& name, const ChunkSink& sink);
  Bytes get_bytes(const std::string& name);
  std::uint64_t get_to_file(const std::string& name,
                            const std::filesystem::path& path);

  void node_fail(std::uint32_t node);
  void node_heal(std::uint32_t node);
  RebuildResult node_rebuild(std::uint32_t node);

  /// Whether ops propagate trace ids on the wire (ClientConfig::trace).
  bool trace() const noexcept { return config_.trace; }
  /// Trace id of the most recent traced logical op (0 before the first)
  /// — what "aecc trace --request-id" filters dumps on.
  std::uint64_t last_trace_id() const noexcept { return last_trace_id_; }

 private:
  /// RAII around one logical op: allocates the trace id while tracing
  /// and records a "net.client.request" span in the global ring.
  class OpScope {
   public:
    OpScope(Client& client, const char* what);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;
    /// Free-form span label ("put" ops use the archive file name —
    /// user-supplied text the dump escapes).
    void set_label(std::string_view text) noexcept { span_.set_label(text); }

   private:
    Client& client_;
    obs::TraceSpan span_;
  };

  std::uint64_t new_trace_id() noexcept;
  void send_frame(const Frame& frame);
  /// Sends already-encoded frame bytes (CheckError on failure).
  void send_wire(BytesView wire);
  /// Blocks for the next frame (CheckError on EOF/timeout/framing).
  Frame recv_frame();
  /// recv_frame + request-id match + kError → RemoteError.
  Frame recv_reply(std::uint64_t request_id);
  /// send + recv_reply for single-frame ops.
  Frame roundtrip(Op op, Bytes payload);

  ClientConfig config_;
  int fd_ = -1;
  FrameParser parser_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t trace_count_ = 0;
  std::uint64_t active_trace_id_ = 0;  // nonzero inside a traced op
  std::uint64_t last_trace_id_ = 0;
};

}  // namespace aec::net
