// Replica health supervisor: sentinel probes + per-replica circuit
// breakers (DESIGN.md §13).
//
// Every tenant's replica pool (ModelRegistry, DESIGN.md §14) gets its own
// supervisor and BreakerBoard when probing is on, so a wedged replica is
// noticed and routed around in whichever tenant it serves:
//
//   * every probe interval each replica decodes a sentinel sentence under
//     a deadline; a probe fails when the replica rejects the submit, the
//     response misses the deadline, or the status is terminal (SHUTDOWN /
//     ERROR / DEADLINE_EXCEEDED) — OVERLOADED and degraded answers are
//     load signals, not health failures. A probe is not a request: it
//     stays out of the replica's request counters, so the router's
//     replica ledger holds with probing on;
//   * `failure_threshold` consecutive failures open the replica's circuit
//     breaker: the router routes the tenant's requests around it (unless
//     every breaker of that tenant is open — fail-static beats fail-closed
//     when the probe itself is what is broken);
//   * an open breaker is re-probed half-open on a util::Backoff schedule;
//     a dead (killed) replica is revived first. One successful half-open
//     probe closes the breaker and resets the backoff.
//
// The "replica.probe" fault point fails a probe before it touches the
// replica, so chaos runs can open breakers deterministically. Metrics:
// router.health.{probes,probe_failures,breaker_opens,breaker_closes,
// revives} counters, shared by every tenant's supervisor (one registry
// instrument each, so they sum over tenants); the router publishes the
// router.health.open_breakers gauge at scrape time.
//
// Probing is opt-in (a non-zero probe interval); manual "#REPLICA
// kill|revive" keeps working either way — a kill just gets noticed,
// routed around, and eventually revived when the supervisor runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/registry.hpp"
#include "src/router/replica.hpp"
#include "src/util/fault.hpp"

namespace graphner::router {

/// Per-replica open/closed flags, readable lock-free from the router's
/// request hot path (one relaxed load per considered replica).
class BreakerBoard {
 public:
  explicit BreakerBoard(std::size_t n)
      : n_(n), open_(std::make_unique<std::atomic<bool>[]>(n)) {
    for (std::size_t i = 0; i < n_; ++i)
      open_[i].store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool is_open(std::size_t i) const noexcept {
    return open_[i].load(std::memory_order_relaxed);
  }
  void set_open(std::size_t i, bool open) noexcept {
    open_[i].store(open, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t open_count() const noexcept {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_; ++i)
      if (is_open(i)) ++count;
    return count;
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<bool>[]> open_;
};

struct SupervisorConfig {
  /// Time between probe sweeps; 0 (default) turns probing off — no
  /// supervisor is built and replica health stays manual.
  std::chrono::milliseconds probe_interval{0};
  /// Deadline handed to the sentinel submit; a response slower than this
  /// counts as a failed probe.
  std::chrono::milliseconds probe_deadline{250};
  /// Consecutive probe failures that open the breaker.
  std::size_t failure_threshold = 3;
  /// Half-open re-probe schedule for an open breaker. max_retries is
  /// effectively ignored — an open breaker is re-probed forever at the
  /// capped delay.
  util::BackoffPolicy revive_backoff{std::chrono::milliseconds(100),
                                     std::chrono::milliseconds(2000), 2.0, 0.2,
                                     1 << 30};
};

class HealthSupervisor {
 public:
  /// Starts the probe thread immediately. `replicas` and `breakers` must
  /// outlive the supervisor; stop() (or destruction) joins the thread.
  /// `tenant` names the pool in every log line ("supervisor[<tenant>]: …").
  HealthSupervisor(std::string tenant, SupervisorConfig config,
                   std::vector<std::unique_ptr<ReplicaHandle>>& replicas,
                   BreakerBoard& breakers, obs::Registry& registry);
  ~HealthSupervisor();

  HealthSupervisor(const HealthSupervisor&) = delete;
  HealthSupervisor& operator=(const HealthSupervisor&) = delete;

  void stop();

  /// One probe sweep over all replicas (the loop body, callable directly
  /// by tests for deterministic single-step drills).
  void probe_all();

 private:
  struct ReplicaState {
    std::size_t consecutive_failures = 0;
    util::Backoff backoff;
    /// Next time an open breaker may half-open probe.
    std::chrono::steady_clock::time_point next_probe{};
    explicit ReplicaState(const util::BackoffPolicy& policy)
        : backoff(policy) {}
  };

  [[nodiscard]] bool probe(ReplicaHandle& replica);
  void run();

  /// Serializes probe sweeps: the probe thread and a test driving
  /// probe_all() directly may not touch states_ concurrently.
  std::mutex probe_mutex_;

  std::string tenant_;
  SupervisorConfig config_;
  std::vector<std::unique_ptr<ReplicaHandle>>& replicas_;
  BreakerBoard& breakers_;
  obs::Counter& probes_;
  obs::Counter& probe_failures_;
  obs::Counter& breaker_opens_;
  obs::Counter& breaker_closes_;
  obs::Counter& revives_;
  std::vector<ReplicaState> states_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace graphner::router
