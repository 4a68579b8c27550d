// Fixed-size worker pool executing opaque tasks FIFO.
//
// The serving runtime submits one task per micro-batch; the pool's threads
// are its engine's slots, so they bound the number of concurrently executing
// batches: the host's worker_threads on the CPU engine, one on the fabric (one
// physical IP core), independent of how many HTTP connection threads are
// blocked on futures. Shutdown is graceful: every task already submitted runs
// to completion before the workers join.
//
// The pool's slots are shared with callers. A thread that would submit a
// task and then sleep on its result can instead claim an idle slot
// (try_claim()) and run the work itself. A claimed slot counts like a
// running task: it shows in running(), and no worker starts a task while
// running tasks and claimed slots together fill thread_count(). So the
// bound holds whichever thread computes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cnn2fpga::serve {

class Executor {
 public:
  /// One of the pool's slots, held by a caller that runs work on its own
  /// thread (see try_claim()). Released when destroyed. An empty Slot
  /// (a failed claim) tests false.
  class Slot {
   public:
    Slot() = default;
    Slot(Slot&& other) noexcept : owner_(std::exchange(other.owner_, nullptr)) {}
    Slot& operator=(Slot&& other) noexcept {
      if (this != &other) {
        release();
        owner_ = std::exchange(other.owner_, nullptr);
      }
      return *this;
    }
    ~Slot() { release(); }
    explicit operator bool() const { return owner_ != nullptr; }

   private:
    friend class Executor;
    explicit Slot(Executor* owner) : owner_(owner) {}
    void release();

    Executor* owner_ = nullptr;
  };

  /// Spawns `threads` workers immediately (at least 1).
  explicit Executor(std::size_t threads);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue a task. Throws std::runtime_error after shutdown().
  void submit(std::function<void()> task);

  /// Claim an idle slot for the calling thread. Succeeds only while no task
  /// is queued and running tasks plus claimed slots leave one free, so a
  /// claim never overtakes submitted work. Never blocks; empty after
  /// shutdown(). The executor must outlive the slot.
  Slot try_claim();

  /// Drain the queue, run everything already submitted, join the workers.
  /// Idempotent; further submit() calls fail.
  void shutdown();

  std::size_t thread_count() const { return width_; }

  /// Tasks submitted but not yet started (approximate; for tests/metrics).
  std::size_t queued() const;
  /// Tasks executing plus claimed slots: the slots in use (approximate).
  std::size_t running() const;
  /// queued() + running() (approximate).
  std::size_t backlog() const;

 private:
  void worker_loop();
  void release_slot();

  const std::size_t width_;
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t active_ = 0;   ///< tasks currently executing
  std::size_t claimed_ = 0;  ///< slots held by callers (try_claim)
  bool stopping_ = false;
};

}  // namespace cnn2fpga::serve
