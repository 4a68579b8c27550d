// Minimal HTTP/1.1 server and client.
//
// The paper's framework is "a web-application to be easily accessible"
// (Sec. IV-A): an HTML5/JS front-end posting a JSON descriptor to a back-end
// that returns the generated artifacts. This module provides the transport:
// an accept thread that serves each connection on a thread of its own (so a
// slow or blocking request — e.g. a predict waiting on the batcher — and an
// idle kept-alive connection stall nothing but themselves) and a matching
// client used by the test suite. Only the subset of HTTP needed for the JSON
// API is implemented: request line, headers, Content-Length bodies.
//
// Robustness: malformed request lines and header lines (parse_header_line)
// answer 400 instead of silently closing the connection or skipping the
// line, bodies over `max_body_bytes` answer 413, a body past 64 KiB
// is allocated as its bytes arrive rather than when announced, a client that
// stalls mid-request is cut off by a per-connection read timeout (408), and a
// slow reader that accepts a response slower than the kernel send buffer
// drains is cut off by a per-connection send timeout — so neither direction
// of a stalled socket can hold its connection thread forever.
//
// Keep-alive: a request carrying `Connection: keep-alive` keeps the socket
// open for further requests (bounded by `kKeepAliveTimeoutMs` between them)
// — the transport the shard router's per-worker connection pool rides on
// (src/serve/shard). Clients that say nothing, or say `close`, get the
// historical one-request-per-connection behavior. A client may pipeline:
// bytes that arrive past one request start the next, and the responses go
// out in request order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>

namespace cnn2fpga::web {

struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string path;     ///< "/api/v1/generate"
  std::map<std::string, std::string> headers;  ///< lower-cased keys
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (beyond Content-Type/Length). The server emits
  /// them verbatim; the client parses all received headers here with
  /// lower-cased keys.
  std::map<std::string, std::string> headers;
};

using Handler = std::function<HttpResponse(const HttpRequest&)>;

struct ServerConfig {
  std::size_t max_body_bytes = 16u << 20;   ///< larger bodies answer 413
  int read_timeout_ms = 5000;               ///< per-connection recv timeout (408)
  int write_timeout_ms = 5000;              ///< per-connection send timeout
                                            ///< (slow readers are dropped)
  /// Also set SO_REUSEPORT before binding. Shard worker processes use this
  /// to bind a port their parent keeps reserved (serve/shard ReservedPort),
  /// so a restart can never lose the port to an unrelated ephemeral bind.
  bool reuse_port = false;
};

/// Idle wait for the next request on a kept-alive connection before the
/// server closes it (a quiet close, not a 408 — keep-alive expiry is
/// normal). Clients opt in per request with `Connection: keep-alive`.
inline constexpr int kKeepAliveTimeoutMs = 5000;

class HttpServer {
 public:
  HttpServer() = default;
  explicit HttpServer(ServerConfig config) : config_(config) {}
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Route an exact (method, path) pair. Not safe to call while running.
  void route(const std::string& method, const std::string& path, Handler handler);

  /// Bind to 127.0.0.1:`port` (0 = ephemeral) and serve on background
  /// threads (one acceptor + one per open connection). Returns the bound
  /// port. Throws std::runtime_error on failure.
  int start(int port = 0);

  /// Stop accepting, close idle kept-alive connections, let requests in
  /// flight finish, and return once every connection thread has exited.
  /// Idempotent; the server can be start()ed again afterwards.
  void stop();

  int port() const { return port_; }
  bool running() const { return running_.load(); }
  const ServerConfig& config() const { return config_; }

 private:
  void accept_loop();
  void handle_connection(int fd);
  HttpResponse dispatch(const HttpRequest& request) const;

  ServerConfig config_;
  std::map<std::pair<std::string, std::string>, Handler> routes_;
  /// Atomic: stop() closes/invalidates the fd while accept_loop() reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread acceptor_;

  std::mutex conn_mutex_;
  /// Notified when a connection closes: wakes stop() and an acceptor held at
  /// the connection cap or out of descriptors.
  std::condition_variable conn_cv_;
  std::size_t open_connections_ = 0;  ///< connection threads still running
  /// Kept-alive connections blocked waiting for their *next* request. stop()
  /// shuts their read side down so an idle peer cannot delay shutdown by the
  /// keep-alive timeout; in-flight requests still complete normally.
  std::set<int> idle_fds_;
};

/// A Content-Length value as RFC 9112 §6.3 allows it: one or more ASCII
/// digits and nothing else (no sign, no whitespace, no suffix). nullopt when
/// the value is not a digit string; a value past the range of size_t reads as
/// its maximum, which every size limit rejects.
std::optional<std::size_t> parse_content_length(std::string_view value);

/// One header field line split at its first colon.
struct HeaderField {
  std::string_view name;   ///< as sent (a token); compare it lower-cased
  std::string_view value;  ///< without surrounding whitespace or the CR
};

/// Parse one header field line (RFC 9112 §5), its CR included or not.
/// nullopt for a line a peer could frame another way, so the message must be
/// refused: a line that starts with SP or HTAB (obs-fold, §5.2), whitespace
/// between the name and the colon (§5.1), no colon or an empty name, or any
/// other name that is not a token (RFC 9110 §5.1).
std::optional<HeaderField> parse_header_line(std::string_view line);

/// Blocking single-request client (test utility).
std::optional<HttpResponse> http_request(const std::string& host, int port,
                                         const std::string& method, const std::string& path,
                                         const std::string& body = "",
                                         const std::string& content_type = "application/json");

}  // namespace cnn2fpga::web
