// Real worker processes through ProcessLauncher: the codegen_server binary
// launched in its --worker mode on a reserved port, driven through start,
// SIGKILL, restart on the same port and graceful stop; siblings and fds the
// worker must not share with its parent; and a worker that dies before it
// reports ready.
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "serve/shard/process.hpp"
#include "web/http_client.hpp"

using namespace cnn2fpga;
namespace shard = cnn2fpga::serve::shard;

namespace {

/// True once `pid` is no longer an unreaped child of this process.
bool reaped(pid_t pid) { return ::waitpid(pid, nullptr, WNOHANG) < 0 && errno == ECHILD; }

bool readyz_answers(int port) {
  return web::http_request("127.0.0.1", port, "GET", "/api/v1/readyz").has_value();
}

/// What the symlink `link` under /proc points at ("socket:[inode]", ...).
std::string link_target(const std::string& link) {
  char target[256];
  const ssize_t n = ::readlink(link.c_str(), target, sizeof(target));
  return n > 0 ? std::string(target, static_cast<std::size_t>(n)) : "";
}

/// What every open fd of `pid` points at.
std::set<std::string> fd_targets(pid_t pid) {
  std::set<std::string> targets;
  const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
  DIR* fds = ::opendir(dir.c_str());
  if (fds == nullptr) return targets;
  while (const dirent* entry = ::readdir(fds)) {
    targets.insert(link_target(dir + "/" + entry->d_name));
  }
  ::closedir(fds);
  return targets;
}

/// codegen_server in --worker mode on a fresh reserved port.
shard::ProcessLauncher worker_launcher(std::vector<std::string> args = {},
                                       int ready_timeout_ms = 20000) {
  return shard::ProcessLauncher(shard::ReservedPort::reserve(), std::move(args),
                                ready_timeout_ms, CODEGEN_SERVER_PATH);
}

}  // namespace

TEST(ProcessLauncher, StartKillRestartStop) {
  shard::ProcessLauncher launcher = worker_launcher();
  ASSERT_TRUE(launcher.start());
  EXPECT_TRUE(launcher.alive());
  EXPECT_TRUE(readyz_answers(launcher.port()));

  const pid_t killed = launcher.pid();
  launcher.kill_now();
  EXPECT_FALSE(launcher.alive());
  EXPECT_TRUE(reaped(killed));
  EXPECT_FALSE(readyz_answers(launcher.port()));

  // The reservation outlives the worker: the restart binds the same port.
  ASSERT_TRUE(launcher.start());
  EXPECT_TRUE(readyz_answers(launcher.port()));

  const pid_t stopped = launcher.pid();
  launcher.stop();
  EXPECT_FALSE(launcher.alive());
  EXPECT_TRUE(reaped(stopped));
}

TEST(ProcessLauncher, StopReachesAWorkerWhileASiblingRuns) {
  // A sibling launched later must not hold the first worker's control socket
  // open: the first worker's stop would then never deliver EOF and hang.
  shard::ProcessLauncher first = worker_launcher();
  shard::ProcessLauncher second = worker_launcher();
  ASSERT_TRUE(first.start());
  ASSERT_TRUE(second.start());
  const pid_t pid = first.pid();
  first.stop();
  EXPECT_TRUE(reaped(pid));
  EXPECT_TRUE(second.alive());
  EXPECT_TRUE(readyz_answers(second.port()));
}

TEST(ProcessLauncher, WorkerInheritsNoOtherFdOfTheParent) {
  // A socket without close-on-exec, like a router's listener or client
  // connections, must not leak into a worker: a worker holding the router's
  // listener would keep its port open after the router exits.
  const int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  // Above fd 3, which the launch overwrites with the control socket anyway.
  const int leaky = ::fcntl(sock, F_DUPFD, 10);
  ::close(sock);
  ASSERT_GE(leaky, 10);
  const std::string leaky_target = link_target("/proc/self/fd/" + std::to_string(leaky));
  ASSERT_FALSE(leaky_target.empty());
  shard::ProcessLauncher launcher = worker_launcher();
  ASSERT_TRUE(launcher.start());
  EXPECT_EQ(fd_targets(launcher.pid()).count(leaky_target), 0u);
  launcher.stop();
  ::close(leaky);
}

TEST(ProcessLauncher, WorkerThatExitsBeforeReadyFailsFast) {
  constexpr int kReadyTimeoutMs = 30000;
  // Each worker refuses its flags at start-up and exits: an unknown engine,
  // the retired cost placer and --backends flag, and a misspelled flag.
  const std::vector<std::vector<std::string>> refused = {
      {"--placer", "bogus"},
      {"--placer", "cost"},
      {"--backends", "cpu"},
      {"--max-queue-dept", "1"},
  };
  for (const std::vector<std::string>& args : refused) {
    shard::ProcessLauncher launcher = worker_launcher(args, kReadyTimeoutMs);
    const auto begin = std::chrono::steady_clock::now();
    EXPECT_FALSE(launcher.start()) << args[0];
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - begin);
    // EOF on the control socket, not the timeout, ended the wait.
    EXPECT_LT(waited.count(), kReadyTimeoutMs / 6) << args[0];
    EXPECT_EQ(launcher.pid(), -1) << args[0];
    EXPECT_FALSE(launcher.alive()) << args[0];
  }
}
