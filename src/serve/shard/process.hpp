// Worker processes of the shard router: port reservation and launch.
//
// A sharded fleet is real processes, not threads: each worker owns its own
// registry, batcher and executor, so a crash (or a SIGKILL in a failover
// drill) takes down exactly one shard.
//
//   * ReservedPort picks a free ephemeral port up front AND keeps holding it
//     (a bound, never-listening SO_REUSEPORT socket) so the router knows
//     every worker's address before any of them is up and a supervisor can
//     restart a crashed worker on the same port with zero race window — the
//     kernel never hands a reserved port to an unrelated bind,
//   * ProcessLauncher starts a worker in exactly one way: posix_spawn of a
//     program (by default this process's own binary, /proc/self/exe) as
//         <program> --worker --port P --control-fd 3 <args...>
//     The child's fd 3 is one end of a socketpair and every other inherited
//     fd above stdio is closed before exec; the parent's end is close-on-exec,
//     so no other child ever holds it. The worker calls
//     report_ready_and_wait() once its HttpServer is listening: it writes one
//     byte, then blocks until the parent closes its end (or dies — the kernel
//     closes it then). EOF before that byte means the worker died starting.
//
// Every worker is a fresh exec of a whole program, so a launch is safe from
// any thread at any time, including a restart from a busy, threaded router.
#pragma once

#include <sys/types.h>

#include <mutex>
#include <string>
#include <vector>

namespace cnn2fpga::serve::shard {

/// Reserve a free 127.0.0.1 port: bind ephemeral, read it back, close. The
/// port is free again once this returns, so another bind can take it before
/// the caller does; fleets use ReservedPort, which has no such window.
int reserve_local_port();

/// A 127.0.0.1 port held reserved for a worker's whole lifetime, across any
/// number of crash/restart cycles. The reservation is a bound socket with
/// SO_REUSEADDR | SO_REUSEPORT that never listens; the worker (same uid) joins
/// the reuseport group when it binds, and because the reservation never
/// accepts, every connection goes to the worker's listening socket. While the
/// worker is dead its connections are refused promptly (no listener in the
/// group) — exactly the signal the router's health tracking wants.
class ReservedPort {
 public:
  ReservedPort() = default;
  ~ReservedPort();
  ReservedPort(const ReservedPort&) = delete;
  ReservedPort& operator=(const ReservedPort&) = delete;
  ReservedPort(ReservedPort&& other) noexcept;
  ReservedPort& operator=(ReservedPort&& other) noexcept;

  /// Bind and hold a free ephemeral port. Returns an invalid reservation
  /// (port() == 0) on failure.
  static ReservedPort reserve();

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// How a supervisor slot starts, probes and stops its worker. All calls are
/// made from the supervising thread (plus stop_all at teardown); a launcher
/// that is also poked from elsewhere (a chaos drill killing workers) must
/// synchronize internally, as ProcessLauncher does.
class WorkerLauncher {
 public:
  virtual ~WorkerLauncher() = default;
  /// (Re)start the worker on its fixed port and wait until it is serving.
  /// Returns false if the worker could not be brought up.
  virtual bool start() = 0;
  /// Cheap liveness poll. Must reap an exited worker (no zombies).
  virtual bool alive() = 0;
  /// Graceful stop (fleet teardown).
  virtual void stop() = 0;
  virtual int port() const = 0;
};

/// The one way a real worker process is started, probed and stopped: owns
/// the worker's port reservation, its pid and the parent end of its control
/// socket (see the header comment for the protocol).
class ProcessLauncher : public WorkerLauncher {
 public:
  /// `args` follow the protocol flags on the worker's command line (the
  /// parent's serving flags). `program` is the binary to run in --worker
  /// mode; by default this process's own.
  ProcessLauncher(ReservedPort reserved, std::vector<std::string> args, int ready_timeout_ms,
                  std::string program = "/proc/self/exe");
  ~ProcessLauncher() override;
  ProcessLauncher(const ProcessLauncher&) = delete;
  ProcessLauncher& operator=(const ProcessLauncher&) = delete;

  /// Spawn the worker and wait for its ready byte. Fails as soon as the child
  /// exits without sending it, or after `ready_timeout_ms` (the child is then
  /// killed); either way the child is reaped. True at once if running.
  bool start() override;
  /// Non-blocking (waitpid WNOHANG): an exited or crashed child is reaped and
  /// reported dead. This is the supervisor's crash detector.
  bool alive() override;
  /// Graceful stop: close the control socket (the child sees EOF), wait for
  /// the child to exit.
  void stop() override;
  int port() const override { return reserved_.port(); }

  /// SIGKILL the worker and reap it (failover drills: death without any
  /// goodbye). Safe to call from any thread; waits for a start() in progress.
  void kill_now();

  /// The running child's pid, or -1.
  pid_t pid() const;

 private:
  bool spawn_locked();
  bool await_ready_locked();
  /// Close the control socket, optionally SIGKILL first, and reap.
  void end_locked(bool kill);

  const ReservedPort reserved_;
  const std::vector<std::string> args_;
  const int ready_timeout_ms_;
  const std::string program_;
  mutable std::mutex mutex_;  ///< guards pid_ and control_fd_
  pid_t pid_ = -1;
  int control_fd_ = -1;  ///< parent end; closing it is the shutdown signal
};

/// Worker side of the launch protocol: report ready on `control_fd`, then
/// block until the parent closes its end (or dies). Call once the worker's
/// HttpServer is listening, then shut down and exit.
void report_ready_and_wait(int control_fd);

}  // namespace cnn2fpga::serve::shard
