// The X-Deadline-Ms request header, read one way in every process.
//
// A predict may carry its client's time budget in milliseconds. The
// single-process ServingRuntime and the shard Router both read the header
// through these functions, so a request gets the same status, code and
// message whether it is routed or local:
//   - one or more ASCII digits, not all zero, is a budget; anything else
//     (a sign, a suffix, whitespace, empty, zero) answers 400 bad_request;
//   - a budget the clock cannot add to the request's arrival time (past
//     steady_clock's range, which takes in every value past uint64) means no
//     deadline, never an immediate 504. parse_content_length applies the
//     same rule past size_t.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>

#include "web/http.hpp"

namespace cnn2fpga::serve {

using DeadlineClock = std::chrono::steady_clock;

/// The header value as a budget in milliseconds. A digit string past the
/// range of uint64 reads as its maximum. nullopt when the value is not a
/// positive digit string.
std::optional<std::uint64_t> parse_deadline_ms(std::string_view value);

/// The 400 bad_request answer for a value parse_deadline_ms rejects.
web::HttpResponse deadline_header_error(std::string_view value);

/// `arrival + budget_ms`, or DeadlineClock::time_point::max() (no deadline)
/// when the sum is past the clock's range.
DeadlineClock::time_point deadline_after(DeadlineClock::time_point arrival,
                                         std::uint64_t budget_ms);

}  // namespace cnn2fpga::serve
