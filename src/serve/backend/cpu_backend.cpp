#include "serve/backend/cpu_backend.hpp"

namespace cnn2fpga::serve {

BackendCapabilities CpuBackend::capabilities() const {
  BackendCapabilities caps;
  caps.concurrency = executor_.thread_count();
  return caps;
}

std::size_t CpuBackend::pending() const {
  const std::size_t own = queued() + inflight();
  const std::size_t backlog = executor_.backlog();
  return backlog > own ? backlog : own;
}

}  // namespace cnn2fpga::serve
