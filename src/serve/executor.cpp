#include "serve/executor.hpp"

#include <stdexcept>

namespace cnn2fpga::serve {

Executor::Executor(std::size_t threads) : width_(threads == 0 ? 1 : threads) {
  threads_.reserve(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() { shutdown(); }

void Executor::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("Executor: submit after shutdown");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

Executor::Slot Executor::try_claim() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || !queue_.empty() || active_ + claimed_ >= width_) return Slot{};
  ++claimed_;
  return Slot{this};
}

void Executor::Slot::release() {
  if (owner_ != nullptr) std::exchange(owner_, nullptr)->release_slot();
}

void Executor::release_slot() {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --claimed_;
    // A queued task may have been held back by this slot. Otherwise every
    // worker is idle with nothing to do, and waking one would be wasted.
    wake = !queue_.empty();
  }
  if (wake) cv_.notify_one();
}

void Executor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::size_t Executor::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t Executor::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_ + claimed_;
}

std::size_t Executor::backlog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + active_ + claimed_;
}

void Executor::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // A task starts only in a free slot: callers' claimed slots count
      // against the same width as running tasks.
      cv_.wait(lock, [this] {
        return queue_.empty() ? stopping_ : active_ + claimed_ < width_;
      });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
  }
}

}  // namespace cnn2fpga::serve
