// Backend identities shared across the serving layer.
//
// A serving runtime executes every batch on one of two engines, chosen at
// start-up: the SIMD CPU engine (ExecutionContextPool / infer_batch) or the
// simulated FPGA fabric (axi::BlockDesign timing behind the same functional
// network). The per-engine metrics counters index by BackendId, so this
// header must stay dependency-free (metrics.hpp includes it).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace cnn2fpga::serve {

enum class BackendId : std::size_t {
  kCpu = 0,          ///< host SIMD engine (the Zynq ARM core of Tables I/II)
  kAccelerator = 1,  ///< simulated FPGA fabric (the generated IP of Fig. 5)
};

inline constexpr std::size_t kBackendCount = 2;

inline constexpr std::size_t backend_index(BackendId id) {
  return static_cast<std::size_t>(id);
}

inline const char* backend_name(BackendId id) {
  switch (id) {
    case BackendId::kCpu: return "cpu";
    case BackendId::kAccelerator: return "accelerator";
  }
  return "?";
}

/// The engine an operator names: "cpu", or "accel" / "accelerator". Empty on
/// anything else.
inline std::optional<BackendId> parse_backend_name(std::string_view name) {
  if (name == "cpu") return BackendId::kCpu;
  if (name == "accel" || name == "accelerator") return BackendId::kAccelerator;
  return std::nullopt;
}

}  // namespace cnn2fpga::serve
