#include "benchmark/traffic.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include "src/serve/protocol.hpp"

namespace graphner::benchmark {

namespace {

constexpr std::size_t kCollectors = 2;
constexpr std::uint32_t kAttempts = 3;
constexpr std::chrono::milliseconds kRetryDelay{1};

[[nodiscard]] float micros(Clock::duration d) {
  return std::chrono::duration<float, std::micro>(d).count();
}

/// The socket server's per-line submit: a parsed request line becomes a
/// sentence plus its submit options.
[[nodiscard]] std::future<serve::TagResponse> submit_parsed(
    router::Router& router, serve::ParsedLine& parsed) {
  text::Sentence sentence;
  sentence.id = parsed.request.id;
  sentence.tokens = std::move(parsed.request.tokens);
  serve::SubmitOptions options;
  options.deadline = std::chrono::milliseconds{parsed.request.deadline_ms};
  options.model = parsed.request.model;
  options.key = std::move(parsed.request.key);
  return router.submit(std::move(sentence), std::move(options));
}

[[nodiscard]] serve::TagResponse get_response(
    std::future<serve::TagResponse>& future) {
  try {
    return future.get();
  } catch (const std::exception& e) {
    serve::TagResponse response;
    response.status = serve::Status::kError;
    response.error = e.what();
    return response;
  }
}

struct Pending {
  std::future<serve::TagResponse> future;
  serve::Request request;
  Completion completion;
};

class Engine {
 public:
  Engine(router::Router& router, const std::vector<std::string>& lines,
         Clock::time_point epoch)
      : router_(router), lines_(lines), epoch_(epoch) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void send(Clock::time_point due, std::uint16_t phase, std::uint32_t line,
            bool sampled) {
    Pending pending;
    Completion& c = pending.completion;
    c.line = line;
    c.phase = phase;
    c.due_s = seconds(due);
    const Clock::time_point sent = Clock::now();
    c.sent_s = seconds(sent);

    serve::ParsedLine parsed = serve::parse_request_line(lines_[line]);
    if (parsed.kind != serve::LineKind::kRequest) {
      c.done_s = c.sent_s;  // ok stays false: counted as a failure
      sender_out_.push_back(c);
      return;
    }
    const Clock::time_point parsed_at = sampled ? Clock::now() : sent;
    std::future<serve::TagResponse> future = submit_parsed(router_, parsed);
    if (sampled) {
      c.trace_id = ++sampled_;
      c.parse_us = micros(parsed_at - sent);
      c.submit_us = micros(Clock::now() - parsed_at);
    }
    pending.request = std::move(parsed.request);

    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      serve::TagResponse response = get_response(future);
      c.hit = response.ok();
      finish(pending, std::move(response), sender_out_);
      return;
    }
    pending.future = std::move(future);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(pending));
      ++in_flight_;
    }
    ready_.notify_one();
  }

  /// Collector thread body: resolve deferred futures in arrival order.
  void collect(std::deque<Completion>& out) {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return !queue_.empty() || closing_; });
        if (queue_.empty()) return;
        pending = std::move(queue_.front());
        queue_.pop_front();
      }
      finish(pending, get_response(pending.future), out);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
      }
      space_.notify_one();
    }
  }

  /// Block until fewer than `limit` requests are in flight or `until`.
  void wait_for_space(std::size_t limit, Clock::time_point until) {
    std::unique_lock<std::mutex> lock(mutex_);
    space_.wait_until(lock, until, [&] { return in_flight_ < limit; });
  }

  /// Let the collectors exit once the queue is drained.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  std::deque<Completion>& sender_out() noexcept { return sender_out_; }

 private:
  void finish(Pending& pending, serve::TagResponse response,
              std::deque<Completion>& out) {
    Completion& c = pending.completion;
    // A retryable status (UNAVAILABLE while every replica it tried was
    // mid-swap, OVERLOADED) is sent again, as the protocol tells clients
    // to; the retry's time counts in the request's latency.
    while (!response.ok() && serve::status_retryable(response.status) &&
           c.retries + 1 < kAttempts) {
      ++c.retries;
      std::this_thread::sleep_for(kRetryDelay);
      serve::ParsedLine parsed = serve::parse_request_line(lines_[c.line]);
      std::future<serve::TagResponse> future = submit_parsed(router_, parsed);
      response = get_response(future);
    }
    const Clock::time_point format_start =
        c.trace_id != 0 ? Clock::now() : Clock::time_point{};
    const std::string line = serve::format_response(pending.request, response);
    const Clock::time_point done = Clock::now();
    c.done_s = seconds(done);
    c.ok = response.ok();
    c.hash = line_hash(line);
    if (!c.ok) std::fprintf(stderr, "not OK: %s\n", line.c_str());
    if (c.trace_id != 0) {
      c.format_us = micros(done - format_start);
      c.queue_us = static_cast<float>(response.queue_us);
      c.decode_us = static_cast<float>(response.decode_us);
      c.batch = static_cast<std::uint32_t>(response.batch_size);
    }
    out.push_back(c);
  }

  router::Router& router_;
  const std::vector<std::string>& lines_;
  Clock::time_point epoch_;
  std::uint64_t sampled_ = 0;  ///< sender thread only
  // Deques: growing one never copies what it already holds, which would
  // stall the thread that owns it in the middle of the traffic.
  std::deque<Completion> sender_out_;

  std::mutex mutex_;  ///< guards queue_, in_flight_, closing_
  std::condition_variable ready_;
  std::condition_variable space_;
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;
  bool closing_ = false;
};

}  // namespace

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::uint64_t line_hash(const std::string& line) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : line) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::size_t window_of(const TrafficResult& result, std::size_t phase,
                      double t_s) {
  const double start = result.phase_start_s[phase];
  const double length = result.phase_start_s[phase + 1] - start;
  const double w = (t_s - start) / length * static_cast<double>(kWindows);
  return static_cast<std::size_t>(
      std::clamp(w, 0.0, static_cast<double>(kWindows - 1)));
}

TrafficResult run_traffic(router::Router& router,
                          const std::vector<std::string>& lines, Draw& draw,
                          const std::vector<Phase>& phases,
                          Clock::time_point epoch, bool trace) {
  // Wake-ups of the sender are generator lateness, not system latency; the
  // default 50 us timer slack would add to every request's due-time clock.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Engine engine(router, lines, epoch);
  std::array<std::deque<Completion>, kCollectors> collected;
  TrafficResult result;
  {
    std::vector<std::jthread> collectors;
    // Declared after the threads, so it closes the queue before they join,
    // on the normal path and if the sender throws.
    struct Closer {
      Engine& engine;
      ~Closer() { engine.close(); }
    } closer{engine};
    for (auto& out : collected)
      collectors.emplace_back([&engine, &out] { engine.collect(out); });

    Clock::time_point start = Clock::now();
    std::uint64_t sequence = 0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const Phase& phase = phases[p];
      const Clock::time_point end = start + to_duration(phase.seconds);
      const Clock::duration window = (end - start) / kWindows;
      result.phase_start_s.push_back(engine.seconds(start));
      const auto send = [&](Clock::time_point due) {
        const std::size_t w = std::min<std::size_t>(
            static_cast<std::size_t>((due - start) / window), kWindows - 1);
        const bool sampled =
            trace && w % 2 == 0 && ++sequence % kTraceEvery == 0;
        engine.send(due, static_cast<std::uint16_t>(p), draw(), sampled);
      };

      if (phase.rate > 0.0) {
        const double interval = 1.0 / phase.rate;
        for (std::uint64_t i = 0;; ++i) {
          const Clock::time_point due =
              start + to_duration(static_cast<double>(i) * interval);
          if (due >= end) break;
          if (Clock::now() < due) std::this_thread::sleep_until(due);
          send(due);
        }
      } else {
        for (;;) {
          engine.wait_for_space(kSaturationWindow, end);
          const Clock::time_point now = Clock::now();
          if (now >= end) break;
          send(now);
        }
      }
      start = end;
    }
    result.phase_start_s.push_back(engine.seconds(start));
  }

  const auto& sent = engine.sender_out();
  result.completions.reserve(sent.size() + collected[0].size() +
                             collected[1].size());
  result.completions.assign(sent.begin(), sent.end());
  for (const auto& out : collected)
    result.completions.insert(result.completions.end(), out.begin(), out.end());
  return result;
}

std::string serve_once(router::Router& router, const std::string& line) {
  serve::ParsedLine parsed = serve::parse_request_line(line);
  if (parsed.kind != serve::LineKind::kRequest)
    return serve::format_parse_error(parsed.error);
  std::future<serve::TagResponse> future = submit_parsed(router, parsed);
  return serve::format_response(parsed.request, get_response(future));
}

}  // namespace graphner::benchmark
