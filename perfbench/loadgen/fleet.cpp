// Server process handling: spawn into a fresh process group with output to a
// file (the server logs every deploy; an unread pipe would block it once
// full), sample the tree's CPU and peak memory from /proc, and tear the whole
// tree down, forked router workers included.
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "loadgen.hpp"

extern char** environ;

namespace perfbench {

namespace {

struct ProcStat {
  pid_t pid = 0;
  char state = '?';
  pid_t pgrp = 0;
  double cpu_seconds = 0.0;
};

bool read_stat(pid_t pid, ProcStat* out) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(file, line)) return false;
  // The command name may hold spaces and parentheses: fields resume after
  // the last ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::vector<std::string> fields;  // fields[0] is field 3 (state)
  while (rest >> field) fields.push_back(field);
  if (fields.size() < 13) return false;
  static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  out->pid = pid;
  out->state = fields[0][0];
  out->pgrp = static_cast<pid_t>(std::strtol(fields[2].c_str(), nullptr, 10));
  out->cpu_seconds = (std::strtod(fields[11].c_str(), nullptr) +
                      std::strtod(fields[12].c_str(), nullptr)) /
                     ticks;
  return true;
}

double read_vmhwm_mb(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::vector<ProcStat> group_members(pid_t pgid) {
  std::vector<ProcStat> members;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return members;
  while (const dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (*end != '\0' || pid <= 0) continue;
    ProcStat stat;
    if (read_stat(static_cast<pid_t>(pid), &stat) && stat.pgrp == pgid) {
      members.push_back(stat);
    }
  }
  ::closedir(proc);
  return members;
}

/// Reap every exited child of this process without blocking.
void reap_exited() {
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

}  // namespace

void become_subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }

double host_steal_seconds() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream file("/proc/stat");
  std::string label;
  double ticks[8] = {};
  if (!(file >> label) || label != "cpu") return 0.0;
  for (double& t : ticks) {
    if (!(file >> t)) return 0.0;
  }
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool process_group_alive(pid_t pgid) {
  for (const ProcStat& member : group_members(pgid)) {
    if (member.state != 'Z') return true;
  }
  return false;
}

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                             const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawnattr_t attr;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawnattr_init(&attr);
  ::posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  ::posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  ::posix_spawnattr_setpgroup(&attr, 0);  // own group: the tree dies together
  ::posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, binary.c_str(), &actions, &attr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::posix_spawnattr_destroy(&attr);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  pid_ = pid;
}

ServerProcess::~ServerProcess() {
  std::string ignored;
  stop(&ignored);
}

bool ServerProcess::alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -pid_;  // exited and reaped; keep the group id for the teardown check
    return false;
  }
  return true;
}

TreeStats ServerProcess::tree_stats() const {
  TreeStats stats;
  const pid_t pgid = pid_ > 0 ? pid_ : -pid_;
  for (const ProcStat& member : group_members(pgid)) {
    if (member.state == 'Z') continue;
    stats.cpu_seconds += member.cpu_seconds;
    stats.peak_rss_mb += read_vmhwm_mb(member.pid);
  }
  return stats;
}

bool ServerProcess::stop(std::string* error) {
  if (pid_ == -1) return true;
  const pid_t pgid = pid_ > 0 ? pid_ : -pid_;
  bool clean = true;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (alive() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // A router stops its workers before it exits; give orphaned workers the
  // same grace, then kill whatever is left of the group.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (process_group_alive(pgid) && Clock::now() < deadline) {
    reap_exited();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (pid_ > 0 || process_group_alive(pgid)) {
    clean = false;
    *error = "server process tree did not exit on SIGTERM; killed";
    ::kill(-pgid, SIGKILL);
    const auto kill_deadline = Clock::now() + std::chrono::seconds(5);
    while ((alive() || process_group_alive(pgid)) && Clock::now() < kill_deadline) {
      reap_exited();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (process_group_alive(pgid)) *error = "codegen_server processes survived SIGKILL";
  }
  reap_exited();
  pid_ = -1;
  return clean;
}

}  // namespace perfbench
