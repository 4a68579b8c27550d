#include "web/http_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/strings.hpp"

namespace cnn2fpga::web {

using cnn2fpga::util::format;

namespace {

void set_socket_timeout(int fd, int option, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

HttpClient::HttpClient(std::string host, int port, ClientConfig config)
    : host_(std::move(host)), port_(port), config_(config) {}

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reused_ = false;
}

bool HttpClient::connect_with_timeout() {
  close();
  if (config_.faults != nullptr && config_.faults->enabled()) {
    // Refused connection: fail before a socket even exists.
    if (config_.faults->should_fail("client.connect")) return false;
    // Connect timeout: stall for the armed delay, then fail.
    std::uint64_t stall_us = 0;
    if (config_.faults->should_stall("client.connect", &stall_us)) {
      if (stall_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
      return false;
    }
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }

  // Non-blocking connect bounded by poll: a worker that is down must cost at
  // most connect_timeout_ms, not the kernel's minutes-long SYN retry budget.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return false;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout = config_.connect_timeout_ms > 0 ? config_.connect_timeout_ms : -1;
    if (::poll(&pfd, 1, timeout) != 1) {
      ::close(fd);
      return false;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return false;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; timeouts bound the I/O
  set_socket_timeout(fd, SO_RCVTIMEO, config_.read_timeout_ms);
  set_socket_timeout(fd, SO_SNDTIMEO, config_.write_timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  fd_ = fd;
  reused_ = false;
  ++connections_opened_;
  return true;
}

std::optional<HttpResponse> HttpClient::try_request(
    const std::string& method, const std::string& path, const std::string& body,
    const std::map<std::string, std::string>& headers) {
  std::string out = format("%s %s HTTP/1.1\r\n", method.c_str(), path.c_str());
  out += format("Host: %s\r\n", host_.c_str());
  out += config_.keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  if (!body.empty()) {
    if (headers.find("Content-Type") == headers.end() &&
        headers.find("content-type") == headers.end()) {
      out += "Content-Type: application/json\r\n";
    }
    out += format("Content-Length: %zu\r\n", body.size());
  }
  out += "\r\n" + body;
  if (config_.faults != nullptr && config_.faults->enabled()) {
    serve::FaultSpec spec;
    if (config_.faults->should_fail("client.send", &spec)) {
      // Torn write: the server really receives the first `bytes` bytes of the
      // request, then the socket slams shut mid-message.
      const std::size_t torn = std::min<std::size_t>(spec.bytes, out.size());
      if (torn > 0) send_all(fd_, out.substr(0, torn));
      close();
      return std::nullopt;
    }
  }
  if (!send_all(fd_, out)) return std::nullopt;
  if (config_.faults != nullptr && config_.faults->enabled()) {
    // The request went out whole, so the server processes it; resetting here
    // means its response hits a closed socket (EPIPE on the server side) and
    // the caller sees a transport failure after doing real work — the
    // nastiest spot for a connection to die.
    std::uint64_t stall_us = 0;
    if (config_.faults->should_stall("client.recv", &stall_us)) {
      if (stall_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
      close();
      return std::nullopt;
    }
    if (config_.faults->should_fail("client.recv")) {
      close();
      return std::nullopt;
    }
  }

  // Read the status line + headers, then exactly Content-Length body bytes
  // (keep-alive requires length framing; the server always emits it). A
  // response with no Content-Length is read to EOF — only valid when the
  // connection is closing anyway. A response this client cannot frame is a
  // transport failure: a header line parse_header_line refuses, a repeated
  // Content-Length, or any Transfer-Encoding (no chunked decoding here).
  std::string data;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    data.append(buf, static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n");
    if (data.size() > (1u << 20) && header_end == std::string::npos) return std::nullopt;
  }

  HttpResponse response;
  const std::string_view head(data.data(), header_end);
  std::size_t line_end = head.find('\n');
  {
    const auto parts = util::split(util::trim(head.substr(0, line_end)), ' ');
    if (parts.size() < 2) return std::nullopt;
    response.status = static_cast<int>(std::strtol(parts[1].c_str(), nullptr, 10));
    if (response.status < 100 || response.status > 599) return std::nullopt;
  }
  std::optional<std::size_t> content_length;
  bool server_closes = !config_.keep_alive;
  while (line_end != std::string_view::npos) {
    const std::size_t begin = line_end + 1;
    line_end = head.find('\n', begin);
    const auto field = parse_header_line(head.substr(begin, line_end - begin));
    if (!field) return std::nullopt;
    std::string name = util::to_lower(field->name);
    if (name == "content-type") {
      response.content_type = field->value;
    } else if (name == "content-length") {
      if (content_length) return std::nullopt;  // repeated
      content_length = parse_content_length(field->value);
      if (!content_length) return std::nullopt;  // not a digit string
    } else if (name == "transfer-encoding") {
      return std::nullopt;
    } else {
      if (name == "connection" && util::to_lower(field->value) == "close") server_closes = true;
      response.headers[std::move(name)] = field->value;
    }
  }

  std::string payload = data.substr(header_end + 4);
  if (content_length) {
    if (*content_length > config_.max_response_bytes) return std::nullopt;
    while (payload.size() < *content_length) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      payload.append(buf, static_cast<std::size_t>(n));
    }
    response.body = payload.substr(0, *content_length);
  } else {
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0) return std::nullopt;
      if (n == 0) break;
      payload.append(buf, static_cast<std::size_t>(n));
      if (payload.size() > config_.max_response_bytes) return std::nullopt;
    }
    response.body = std::move(payload);
    server_closes = true;
  }

  if (server_closes || !config_.keep_alive) {
    close();
  } else {
    reused_ = true;
  }
  return response;
}

std::optional<HttpResponse> HttpClient::request(
    const std::string& method, const std::string& path, const std::string& body,
    const std::map<std::string, std::string>& headers) {
  // A pooled keep-alive socket may have been closed by the server since the
  // last request; that failure mode gets one silent retry on a fresh
  // connection. A failure on a fresh connection is the real answer.
  const bool retryable = connected() && reused_;
  if (!connected() && !connect_with_timeout()) return std::nullopt;
  if (auto response = try_request(method, path, body, headers)) return response;
  close();
  if (!retryable) return std::nullopt;
  if (!connect_with_timeout()) return std::nullopt;
  auto response = try_request(method, path, body, headers);
  if (!response) close();
  return response;
}

}  // namespace cnn2fpga::web
