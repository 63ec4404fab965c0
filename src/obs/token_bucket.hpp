// Token-bucket admission control for per-tenant quotas (DESIGN.md §14).
//
// A bucket holds up to `burst` tokens and refills at `rate` tokens per
// second; each admitted request spends one token and an empty bucket
// rejects (the router answers Status::kQuotaExceeded). Two properties the
// serving tier leans on:
//
//   - Deterministic CI shape: rate = 0 never refills, so "burst N, rate 0"
//     admits exactly N requests and then rejects every one after — the
//     chaos smokes assert exact counts without racing a clock.
//   - Unlimited by default: a default-constructed bucket admits
//     everything with one atomic load, so tenants only pay the mutex once
//     a quota is set (the flag is re-checked under the mutex).
//
// Refill is computed lazily from the monotonic clock on each acquire (no
// background thread), capped at `burst` so idle time never banks more
// than one burst.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

namespace graphner::obs {

class TokenBucket {
 public:
  /// No quota: every try_acquire() succeeds.
  TokenBucket() = default;

  /// Install (or replace) a quota: `burst` tokens now, refilling at
  /// `rate_per_sec`. Negative arguments clamp to zero.
  void configure(double rate_per_sec, double burst) {
    std::lock_guard<std::mutex> lock(mutex_);
    rate_ = std::max(0.0, rate_per_sec);
    burst_ = std::max(0.0, burst);
    tokens_ = burst_;
    last_refill_ = Clock::now();
    limited_.store(true, std::memory_order_release);
  }

  /// Drop the quota; the bucket admits everything again.
  void remove() {
    std::lock_guard<std::mutex> lock(mutex_);
    limited_.store(false, std::memory_order_release);
  }

  /// Spend one token. False = quota exhausted, reject the request.
  [[nodiscard]] bool try_acquire() {
    if (!limited_.load(std::memory_order_acquire)) return true;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!limited_.load(std::memory_order_relaxed)) return true;
    const Clock::time_point now = Clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - last_refill_).count();
    last_refill_ = now;
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  [[nodiscard]] bool limited() const {
    return limited_.load(std::memory_order_acquire);
  }
  /// The configured shape, for "model list" reporting (0/0 if unlimited).
  [[nodiscard]] std::pair<double, double> shape() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return limited_.load(std::memory_order_relaxed)
               ? std::pair<double, double>{rate_, burst_}
               : std::pair<double, double>{0.0, 0.0};
  }

 private:
  using Clock = std::chrono::steady_clock;

  mutable std::mutex mutex_;
  /// Written only under mutex_; read lock-free on the acquire fast path.
  std::atomic<bool> limited_{false};
  double rate_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  Clock::time_point last_refill_{};
};

}  // namespace graphner::obs
