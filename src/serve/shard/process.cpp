#include "serve/shard/process.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>

extern char** environ;

namespace cnn2fpga::serve::shard {

namespace {
/// The fd number the worker finds its end of the control socket at.
constexpr int kChildControlFd = 3;
}  // namespace

int reserve_local_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = static_cast<int>(ntohs(addr.sin_port));
  }
  ::close(fd);
  return port;
}

ReservedPort::~ReservedPort() {
  if (fd_ >= 0) ::close(fd_);
}

ReservedPort::ReservedPort(ReservedPort&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ReservedPort& ReservedPort::operator=(ReservedPort&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

ReservedPort ReservedPort::reserve() {
  ReservedPort reserved;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reserved;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Both members of a reuseport group must opt in; the worker's listening
  // socket sets it too (web::ServerConfig.reuse_port).
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reserved;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return reserved;
  }
  reserved.fd_ = fd;
  reserved.port_ = static_cast<int>(ntohs(addr.sin_port));
  return reserved;
}

ProcessLauncher::ProcessLauncher(ReservedPort reserved, std::vector<std::string> args,
                                 int ready_timeout_ms, std::string program)
    : reserved_(std::move(reserved)),
      args_(std::move(args)),
      ready_timeout_ms_(ready_timeout_ms),
      program_(std::move(program)) {}

ProcessLauncher::~ProcessLauncher() { stop(); }

bool ProcessLauncher::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pid_ > 0) return true;
  if (!reserved_.valid() || !spawn_locked()) return false;
  if (await_ready_locked()) return true;
  end_locked(/*kill=*/true);
  return false;
}

bool ProcessLauncher::spawn_locked() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return false;
  const std::string port = std::to_string(reserved_.port());
  const std::string control_fd = std::to_string(kChildControlFd);
  // argv[0] names the binary itself rather than /proc/self/exe, so ps and
  // pgrep show which program a worker runs.
  const std::unique_ptr<char, decltype(&std::free)> name(::realpath(program_.c_str(), nullptr),
                                                         &std::free);
  std::vector<const char*> argv = {name ? name.get() : program_.c_str(), "--worker", "--port",
                                   port.c_str(), "--control-fd", control_fd.c_str()};
  for (const std::string& arg : args_) argv.push_back(arg.c_str());
  argv.push_back(nullptr);

  // The child keeps stdio plus its end of the pair as kChildControlFd.
  // Everything else this process has open (listeners, client connections,
  // the journal, reservations) is closed before exec.
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, fds[1], kChildControlFd);
  ::posix_spawn_file_actions_addclosefrom_np(&actions, kChildControlFd + 1);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, program_.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv.data()), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return false;
  }
  pid_ = pid;
  control_fd_ = fds[0];
  return true;
}

bool ProcessLauncher::await_ready_locked() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ready_timeout_ms_);
  pollfd watch{control_fd_, POLLIN, 0};
  int ready = 0;
  do {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    ready = ::poll(&watch, 1, static_cast<int>(left.count()));
  } while (ready < 0 && errno == EINTR);
  if (ready <= 0) return false;
  char byte = 0;
  // One byte: ready. EOF: the child exited before it got there.
  return ::recv(control_fd_, &byte, 1, 0) == 1;
}

void ProcessLauncher::end_locked(bool kill) {
  if (pid_ <= 0) return;
  if (kill) ::kill(pid_, SIGKILL);
  ::close(control_fd_);
  control_fd_ = -1;
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool ProcessLauncher::alive() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pid_ <= 0) return false;
  if (::waitpid(pid_, nullptr, WNOHANG) == 0) return true;
  // Exited and reaped just now (or ECHILD: reaped elsewhere). Either way it
  // is gone, and its pid may already belong to another process.
  ::close(control_fd_);
  control_fd_ = -1;
  pid_ = -1;
  return false;
}

void ProcessLauncher::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  end_locked(/*kill=*/false);
}

void ProcessLauncher::kill_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  end_locked(/*kill=*/true);
}

pid_t ProcessLauncher::pid() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pid_;
}

void report_ready_and_wait(int control_fd) {
  const char ready = 1;
  // MSG_NOSIGNAL: a parent that already died must not SIGPIPE the worker.
  if (::send(control_fd, &ready, 1, MSG_NOSIGNAL) != 1) return;
  char byte = 0;
  while (true) {
    const ssize_t n = ::recv(control_fd, &byte, 1, 0);
    if (n == 0) return;  // EOF: the parent closed its end, or died
    if (n < 0 && errno != EINTR) return;
  }
}

}  // namespace cnn2fpga::serve::shard
