// Open-loop request traffic for the serving workloads.
//
// One sender thread walks a list of phases. In a fixed-rate phase it sleeps
// until the next request is due (sleep_until, never a busy spin) and then
// sends every request whose time has come, so a stall delays later requests
// instead of thinning them out. A saturation phase instead keeps
// kSaturationWindow requests in flight. Latency is timed from the moment a
// request was due, which charges a stall to every request it delayed.
//
// A request goes through the same per-line calls the socket server makes:
// serve::parse_request_line, Router::submit, future::get and
// serve::format_response. Socket I/O is left out. A future that is ready
// when submit returns is a router cache hit and is finished on the sender;
// the rest go, in arrival order, to two collector threads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/inputs.hpp"
#include "src/router/router.hpp"

namespace graphner::benchmark {

using Clock = std::chrono::steady_clock;

struct Phase {
  std::string name;
  double rate = 0.0;  ///< requests per second; 0 = saturation
  double seconds = 0.0;
};

/// Requests a saturation phase keeps in flight.
inline constexpr std::size_t kSaturationWindow = 256;
/// Equal windows each phase is cut into; reported quantiles are the median
/// over the windows.
inline constexpr std::size_t kWindows = 5;
/// With tracing on, one request in this many is sampled, and only in the
/// even-numbered windows, so the odd windows of the same run measure the
/// untraced path (trace.overhead).
inline constexpr std::uint64_t kTraceEvery = 16;

/// One finished request. Times are seconds since the traffic epoch.
struct Completion {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  std::uint64_t hash = 0;  ///< FNV-1a of the formatted response line
  std::uint32_t line = 0;  ///< pool index
  std::uint16_t phase = 0;
  bool ok = false;
  bool hit = false;  ///< answered OK by a future ready when submit returned
  std::uint32_t retries = 0;  ///< resends after a retryable status
  /// Stage times of a sampled request; trace_id 0 = not sampled.
  std::uint64_t trace_id = 0;
  float parse_us = 0.0f;
  float submit_us = 0.0f;
  float queue_us = 0.0f;
  float decode_us = 0.0f;
  float format_us = 0.0f;
  std::uint32_t batch = 0;
};

struct TrafficResult {
  std::vector<Completion> completions;
  /// Start of each phase, then the end of the last one (seconds since epoch).
  std::vector<double> phase_start_s;
};

[[nodiscard]] Clock::duration to_duration(double seconds);

/// Window of a time `t_s` inside phase `phase`.
[[nodiscard]] std::size_t window_of(const TrafficResult& result,
                                    std::size_t phase, double t_s);

/// Run `phases` back to back through `router`, drawing pool lines with
/// `draw`; returns once every request sent has completed.
[[nodiscard]] TrafficResult run_traffic(router::Router& router,
                                        const std::vector<std::string>& lines,
                                        Draw& draw,
                                        const std::vector<Phase>& phases,
                                        Clock::time_point epoch, bool trace);

/// One request line through the same calls, synchronously; returns the
/// formatted response line.
[[nodiscard]] std::string serve_once(router::Router& router,
                                     const std::string& line);

/// FNV-1a over a response line (how served bytes are compared).
[[nodiscard]] std::uint64_t line_hash(const std::string& line) noexcept;

}  // namespace graphner::benchmark
