#include "web/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "util/logging.hpp"
#include "util/strings.hpp"
#include "web/envelope.hpp"
#include "web/http_client.hpp"

namespace cnn2fpga::web {

using cnn2fpga::util::format;

namespace {

constexpr int kListenBacklog = 64;
/// Open connections, one thread each. At the cap the acceptor stops calling
/// accept() until a connection closes, so further clients wait in the
/// listen backlog instead of each starting a thread.
constexpr std::size_t kMaxConnections = 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 410: return "Gone";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

/// What reading one request produced: either a parsed request, or the error
/// status the connection is owed (0 = the peer vanished before sending
/// anything; no response can be delivered).
struct ReadOutcome {
  std::optional<HttpRequest> request;
  int error_status = 0;
};

ReadOutcome error_outcome(int status) { return {std::nullopt, status}; }

/// Read one request: the header block, then exactly Content-Length body
/// bytes. A body framed any other way is refused, and the connection closes:
/// any Transfer-Encoding answers 501 (RFC 9112 §6.1), a repeated
/// Content-Length or a header line parse_header_line refuses 400 (RFC 9110
/// §8.6, RFC 9112 §5). Guessing the framing would read the body's bytes as
/// the next request. `carry` holds bytes the connection delivered past the previous
/// request (a pipelined client, RFC 9112 §9.3.2, may send the next request in
/// the same segment); the request starts there, and on return `carry` holds
/// whatever arrived past this one.
/// The socket carries SO_RCVTIMEO, so a stalled client surfaces as
/// EAGAIN/EWOULDBLOCK and is answered with 408 instead of holding its thread.
/// On a kept-alive connection (`first == false`) a timeout before the first
/// byte of the next request is ordinary idle expiry, not a protocol error —
/// the connection is closed without a response.
ReadOutcome read_request(int fd, const ServerConfig& config, bool first, std::string& carry) {
  std::string data = std::move(carry);
  carry.clear();
  std::size_t header_end = data.find("\r\n\r\n");
  char buf[4096];
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      if (timed_out && !first && data.empty()) return error_outcome(0);  // idle expiry
      return error_outcome(timed_out ? 408 : 0);
    }
    if (n == 0) return error_outcome(data.empty() ? 0 : 400);  // truncated request
    // The terminator may straddle the previous read: search its last 3 bytes too.
    const std::size_t searched = data.size() < 3 ? 0 : data.size() - 3;
    data.append(buf, static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n", searched);
    if (data.size() > (1u << 20)) return error_outcome(413);  // oversized headers
  }

  HttpRequest request;
  const std::string_view head(data.data(), header_end);
  std::size_t line_end = head.find('\n');
  {
    // Request line: METHOD SP TARGET SP HTTP-VERSION.
    const auto parts = util::split(util::trim(head.substr(0, line_end)), ' ');
    if (parts.size() != 3 || parts[0].empty() || parts[1].empty() ||
        !util::starts_with(parts[2], "HTTP/")) {
      return error_outcome(400);
    }
    request.method = parts[0];
    request.path = parts[1];
  }
  while (line_end != std::string_view::npos) {
    const std::size_t begin = line_end + 1;
    line_end = head.find('\n', begin);
    const auto field = parse_header_line(head.substr(begin, line_end - begin));
    if (!field) return error_outcome(400);
    std::string name = util::to_lower(field->name);
    if (name == "transfer-encoding") return error_outcome(501);
    const auto [header, fresh] = request.headers.try_emplace(std::move(name));
    if (!fresh && header->first == "content-length") return error_outcome(400);
    header->second = field->value;
  }

  std::size_t content_length = 0;
  if (const auto it = request.headers.find("content-length"); it != request.headers.end()) {
    const std::optional<std::size_t> parsed = parse_content_length(it->second);
    if (!parsed) return error_outcome(400);
    if (*parsed > config.max_body_bytes) return error_outcome(413);
    content_length = *parsed;
  }

  // What the header reads already brought is copied in, and the rest is
  // received straight into the body. A body up to kInPlaceBody is sized once.
  // A larger one grows as its bytes arrive, doubling, so a client that
  // announces a large Content-Length and stalls holds about what it sent,
  // not what it announced.
  constexpr std::size_t kInPlaceBody = 64 * 1024;
  const std::size_t body_start = header_end + 4;
  const std::size_t buffered = std::min(data.size() - body_start, content_length);
  request.body.resize(std::min(content_length, std::max(buffered, kInPlaceBody)));
  std::memcpy(request.body.data(), data.data() + body_start, buffered);
  carry.assign(data, body_start + buffered);
  for (std::size_t have = buffered; have < content_length;) {
    if (have == request.body.size()) {
      request.body.resize(have + std::min(have, content_length - have));
    }
    const ssize_t n = ::recv(fd, request.body.data() + have, request.body.size() - have, 0);
    if (n < 0) {
      return error_outcome(errno == EAGAIN || errno == EWOULDBLOCK ? 408 : 400);
    }
    if (n == 0) return error_outcome(400);  // body truncated by the peer
    have += static_cast<std::size_t>(n);
  }
  return {std::move(request), 0};
}

/// Bound a blocking recv (SO_RCVTIMEO) or send (SO_SNDTIMEO) on `fd`.
void set_timeout(int fd, int option, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

void write_response(int fd, const HttpResponse& response, bool keep_alive = false) {
  std::string out = format("HTTP/1.1 %d %s\r\n", response.status, status_text(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += format("Content-Length: %zu\r\n", response.body.size());
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
  out += response.body;
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(const std::string& method, const std::string& path, Handler handler) {
  routes_[{method, path}] = std::move(handler);
}

int HttpServer::start(int port) {
  if (running_.load()) throw std::runtime_error("HttpServer already running");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("HttpServer: socket() failed");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Joining a SO_REUSEPORT group lets this server bind a port that a
  // supervisor parent holds reserved with its own (never-listening)
  // SO_REUSEPORT socket — see serve/shard/process.hpp ReservedPort.
  if (config_.reuse_port) ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(format("HttpServer: bind to port %d failed", port));
  }
  if (::listen(fd, kListenBacklog) != 0) {
    ::close(fd);
    throw std::runtime_error("HttpServer: listen() failed");
  }

  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);

  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  LOG_INFO("http") << format("serving on 127.0.0.1:%d", port_);
  return port_;
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Shutting the listening socket unblocks accept().
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // Unblock connections parked in an idle keep-alive wait: shutting the
    // read side makes their recv return 0 (a quiet close). In-flight
    // requests are untouched — only connections between requests are cut.
    for (const int idle_fd : idle_fds_) ::shutdown(idle_fd, SHUT_RD);
  }
  conn_cv_.notify_all();  // an acceptor held at the cap sees running_ false
  if (acceptor_.joinable()) acceptor_.join();
  std::unique_lock<std::mutex> lock(conn_mutex_);
  conn_cv_.wait(lock, [this] { return open_connections_ == 0; });
}

void HttpServer::accept_loop() {
  std::unique_lock<std::mutex> lock(conn_mutex_);
  while (running_.load()) {
    if (open_connections_ >= kMaxConnections) {
      conn_cv_.wait(lock);
      continue;
    }
    lock.unlock();
    const int client = ::accept(listen_fd_.load(), nullptr, nullptr);
    const int accept_errno = errno;
    if (client >= 0) {
      if (config_.read_timeout_ms > 0) set_timeout(client, SO_RCVTIMEO, config_.read_timeout_ms);
      if (config_.write_timeout_ms > 0) set_timeout(client, SO_SNDTIMEO, config_.write_timeout_ms);
    }
    lock.lock();
    if (client < 0) {
      // Out of descriptors or memory, the next accept() fails the same way
      // at once: wait for a connection to close, or 100 ms, instead of
      // spinning.
      if (accept_errno == EMFILE || accept_errno == ENFILE || accept_errno == ENOBUFS ||
          accept_errno == ENOMEM) {
        conn_cv_.wait_for(lock, std::chrono::milliseconds(100));
      }
      continue;
    }
    ++open_connections_;
    try {
      std::thread([this, client] {
        handle_connection(client);
        ::close(client);
        // The thread's last touch of the server: once the count reaches 0,
        // stop() returns and the server may be destroyed.
        std::lock_guard<std::mutex> done(conn_mutex_);
        --open_connections_;
        conn_cv_.notify_all();
      }).detach();
    } catch (const std::system_error&) {
      --open_connections_;
      ::close(client);
    }
  }
}

void HttpServer::handle_connection(int fd) {
  bool first = true;
  std::string carry;  // bytes received past the request being served
  while (true) {
    if (!first) {
      // Arm the idle wait: the shorter keep-alive timeout replaces the
      // request read timeout between requests, and the fd is registered so
      // stop() can unblock the recv instead of waiting the timeout out.
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        if (!running_.load()) break;
        idle_fds_.insert(fd);
      }
      set_timeout(fd, SO_RCVTIMEO, kKeepAliveTimeoutMs);
    }
    const ReadOutcome outcome = read_request(fd, config_, first, carry);
    if (!first) {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      idle_fds_.erase(fd);
    }
    if (!outcome.request) {
      if (outcome.error_status != 0) {
        const int status = outcome.error_status;
        write_response(fd, api_error(status, status_code_slug(status), status_text(status)));
      }
      return;
    }
    // Keep-alive is opt-in per request; a stopping server always closes.
    const auto connection = outcome.request->headers.find("connection");
    const bool keep_alive = connection != outcome.request->headers.end() &&
                            util::to_lower(connection->second) == "keep-alive" &&
                            running_.load();
    HttpResponse response;
    try {
      response = dispatch(*outcome.request);
    } catch (const std::exception& e) {
      response = api_error(500, "internal", "unhandled exception in handler", e.what());
    }
    write_response(fd, response, keep_alive);
    if (!keep_alive) return;
    first = false;
  }
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
  const auto it = routes_.find({request.method, request.path});
  if (it != routes_.end()) return it->second(request);

  // Distinguish 405 from 404 for a known path with the wrong method.
  for (const auto& [key, handler] : routes_) {
    if (key.second == request.path) {
      return api_error(405, "method_not_allowed",
                       format("%s not allowed for %s", request.method.c_str(),
                              request.path.c_str()));
    }
  }
  return api_error(404, "not_found",
                   format("no route for %s %s", request.method.c_str(), request.path.c_str()));
}

std::optional<std::size_t> parse_content_length(std::string_view value) {
  const std::optional<std::uint64_t> length = util::parse_digits(value);
  if (!length) return std::nullopt;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(*length, std::numeric_limits<std::size_t>::max()));
}

std::optional<HeaderField> parse_header_line(std::string_view line) {
  constexpr std::string_view kTokenPunctuation = "!#$%&'*+-.^_`|~";
  const std::size_t colon = line.find(':');
  if (colon == 0 || colon == std::string_view::npos) return std::nullopt;
  const std::string_view name = line.substr(0, colon);
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        kTokenPunctuation.find(c) == std::string_view::npos) {
      return std::nullopt;  // SP, HTAB, CR or another byte a token cannot hold
    }
  }
  return HeaderField{name, util::trim(line.substr(colon + 1))};
}

std::optional<HttpResponse> http_request(const std::string& host, int port,
                                         const std::string& method, const std::string& path,
                                         const std::string& body,
                                         const std::string& content_type) {
  // One-shot convenience over the reusable client (web/http_client.hpp).
  // Timeouts are generous — this is the test/demo helper, not the router's
  // latency-sensitive path — but no longer absent: a dead server costs
  // seconds, not forever.
  ClientConfig config;
  config.connect_timeout_ms = 5000;
  config.read_timeout_ms = 30000;
  config.write_timeout_ms = 30000;
  config.keep_alive = false;
  HttpClient client(host, port, config);
  std::map<std::string, std::string> headers;
  if (!body.empty()) headers["Content-Type"] = content_type;
  return client.request(method, path, body, headers);
}

}  // namespace cnn2fpga::web
