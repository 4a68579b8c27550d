#include "serve/deadline.hpp"

#include <string>

#include "util/strings.hpp"
#include "web/envelope.hpp"

namespace cnn2fpga::serve {

std::optional<std::uint64_t> parse_deadline_ms(std::string_view value) {
  const std::optional<std::uint64_t> budget = util::parse_digits(value);
  if (!budget || *budget == 0) return std::nullopt;
  return budget;
}

web::HttpResponse deadline_header_error(std::string_view value) {
  return web::api_error(400, "bad_request",
                        util::format("X-Deadline-Ms must be a positive integer, got '%s'",
                                     std::string(value).c_str()));
}

DeadlineClock::time_point deadline_after(DeadlineClock::time_point arrival,
                                         std::uint64_t budget_ms) {
  // The room left on the clock, in whole milliseconds (steady_clock counts
  // from boot, so `arrival` is never negative and the difference cannot
  // overflow).
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      DeadlineClock::time_point::max() - arrival);
  if (budget_ms >= static_cast<std::uint64_t>(room.count())) {
    return DeadlineClock::time_point::max();
  }
  return arrival + std::chrono::milliseconds(static_cast<std::int64_t>(budget_ms));
}

}  // namespace cnn2fpga::serve
