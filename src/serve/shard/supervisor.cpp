#include "serve/shard/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::serve::shard {

using cnn2fpga::util::format;

const char* slot_state_name(SlotState state) {
  switch (state) {
    case SlotState::kRunning: return "running";
    case SlotState::kBackoff: return "backoff";
    case SlotState::kDead: return "dead";
  }
  return "?";
}

Supervisor::Supervisor(SupervisorConfig config) : config_(config) {}

Supervisor::~Supervisor() = default;

void Supervisor::add_slot(const std::string& id, std::unique_ptr<WorkerLauncher> launcher) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto slot = std::make_unique<Slot>();
  slot->id = id;
  slot->launcher = std::move(launcher);
  slots_.push_back(std::move(slot));
}

void Supervisor::on_restart(std::function<void(const std::string& id)> callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_restart_ = std::move(callback);
}

SlotState Supervisor::record_crash_locked(Slot& slot,
                                          std::chrono::steady_clock::time_point now) {
  ++slot.crashes;
  slot.window.push_back(now);
  const auto horizon = now - std::chrono::milliseconds(config_.budget_window_ms);
  while (!slot.window.empty() && slot.window.front() < horizon) slot.window.pop_front();
  if (config_.restart_budget != 0 && slot.window.size() > config_.restart_budget) {
    slot.state = SlotState::kDead;
    LOG_ERROR("supervisor") << format(
        "worker %s: %zu crashes inside %d ms exceed the restart budget (%llu) — permanently down",
        slot.id.c_str(), slot.window.size(), config_.budget_window_ms,
        static_cast<unsigned long long>(config_.restart_budget));
    return slot.state;
  }
  // Deterministic exponential backoff keyed on the crash streak inside the
  // window, so a reproducible kill schedule yields a reproducible restart
  // schedule.
  const double exponent = static_cast<double>(slot.window.size() - 1);
  const double delay = static_cast<double>(config_.backoff_initial_ms) *
                       std::pow(config_.backoff_factor, exponent);
  slot.backoff_ms = static_cast<int>(
      std::min<double>(delay, static_cast<double>(config_.backoff_max_ms)));
  slot.restart_due = now + std::chrono::milliseconds(slot.backoff_ms);
  slot.state = SlotState::kBackoff;
  LOG_WARN("supervisor") << format("worker %s crashed (crash #%llu); restart in %d ms",
                                   slot.id.c_str(),
                                   static_cast<unsigned long long>(slot.crashes),
                                   slot.backoff_ms);
  return slot.state;
}

void Supervisor::tick() {
  const auto now = std::chrono::steady_clock::now();
  // Work on stable pointers: slots_ is append-only and Slot objects are
  // heap-pinned, so launcher calls can run outside the lock.
  std::vector<Slot*> slots;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slots.reserve(slots_.size());
    for (const auto& slot : slots_) slots.push_back(slot.get());
  }

  for (Slot* slot : slots) {
    SlotState state;
    std::chrono::steady_clock::time_point due;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      state = slot->state;
      due = slot->restart_due;
    }
    if (state == SlotState::kDead) continue;

    if (state == SlotState::kRunning) {
      if (slot->launcher->alive()) continue;
      std::lock_guard<std::mutex> lock(mutex_);
      if (slot->state != SlotState::kRunning) continue;  // raced with stop_all
      record_crash_locked(*slot, now);
      continue;
    }

    // kBackoff: attempt the restart once the delay elapsed. The launcher
    // blocks until the worker is serving (or its timeout), outside the
    // lock so status()/readyz stay responsive during the warm-up.
    if (now < due) continue;
    const bool up = slot->launcher->start();
    std::function<void(const std::string&)> callback;
    std::string id;
    bool fleet_stopping = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fleet_stopping = slot->state == SlotState::kDead;  // stop_all raced the restart
      if (!fleet_stopping && !up) {
        record_crash_locked(*slot, std::chrono::steady_clock::now());
        continue;
      }
    }
    if (fleet_stopping) {
      if (up) slot->launcher->stop();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot->state = SlotState::kRunning;
      slot->backoff_ms = 0;
      ++slot->restarts;
      id = slot->id;
      callback = on_restart_;
    }
    LOG_INFO("supervisor") << format("worker %s restarted on port %d", id.c_str(),
                                     slot->launcher->port());
    if (callback) callback(id);
  }
}

void Supervisor::stop_all() {
  std::vector<Slot*> slots;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slot : slots_) {
      // A stopping fleet must not resurrect workers: park every slot in
      // kDead before the graceful stop.
      slot->state = SlotState::kDead;
      slots.push_back(slot.get());
    }
  }
  for (Slot* slot : slots) slot->launcher->stop();
}

std::vector<Supervisor::SlotStatus> Supervisor::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SlotStatus> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    SlotStatus status;
    status.id = slot->id;
    status.port = slot->launcher->port();
    status.state = slot->state;
    status.crashes = slot->crashes;
    status.restarts = slot->restarts;
    status.backoff_ms = slot->state == SlotState::kBackoff ? slot->backoff_ms : 0;
    out.push_back(std::move(status));
  }
  return out;
}

std::uint64_t Supervisor::restarts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->restarts;
  return total;
}

std::uint64_t Supervisor::crashes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->crashes;
  return total;
}

std::uint64_t Supervisor::permanently_down() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->state == SlotState::kDead ? 1 : 0;
  return total;
}

json::Value Supervisor::to_json() const {
  const auto slots = status();
  json::Object out;
  json::Array entries;
  std::uint64_t restarts = 0;
  std::uint64_t crashes = 0;
  std::uint64_t dead = 0;
  for (const auto& slot : slots) {
    json::Object entry;
    entry["id"] = slot.id;
    entry["port"] = slot.port;
    entry["state"] = slot_state_name(slot.state);
    entry["crashes"] = slot.crashes;
    entry["restarts"] = slot.restarts;
    if (slot.state == SlotState::kBackoff) entry["backoff_ms"] = slot.backoff_ms;
    entries.push_back(std::move(entry));
    restarts += slot.restarts;
    crashes += slot.crashes;
    dead += slot.state == SlotState::kDead ? 1 : 0;
  }
  out["slots"] = std::move(entries);
  out["restarts"] = restarts;
  out["crashes"] = crashes;
  out["permanently_down"] = dead;
  return json::Value(std::move(out));
}

}  // namespace cnn2fpga::serve::shard
