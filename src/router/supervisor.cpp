#include "src/router/supervisor.hpp"

#include <utility>

#include "src/util/logging.hpp"

namespace graphner::router {

HealthSupervisor::HealthSupervisor(
    std::string tenant, SupervisorConfig config,
    std::vector<std::unique_ptr<ReplicaHandle>>& replicas,
    BreakerBoard& breakers, obs::Registry& registry)
    : tenant_(std::move(tenant)),
      config_(config),
      replicas_(replicas),
      breakers_(breakers),
      probes_(registry.counter("router.health.probes")),
      probe_failures_(registry.counter("router.health.probe_failures")),
      breaker_opens_(registry.counter("router.health.breaker_opens")),
      breaker_closes_(registry.counter("router.health.breaker_closes")),
      revives_(registry.counter("router.health.revives")) {
  states_.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i)
    states_.emplace_back(config_.revive_backoff);
  if (config_.probe_interval.count() > 0)
    thread_ = std::thread([this] { run(); });
}

HealthSupervisor::~HealthSupervisor() { stop(); }

void HealthSupervisor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HealthSupervisor::run() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, config_.probe_interval, [this] { return stopping_; });
      if (stopping_) return;
    }
    probe_all();
  }
}

bool HealthSupervisor::probe(ReplicaHandle& replica) {
  probes_.inc();
  // Chaos hook: a fired probe fault is a probe that never came back.
  if (util::fault_fires("replica.probe")) {
    probe_failures_.inc();
    return false;
  }
  text::Sentence sentinel;
  sentinel.tokens = {"health", "probe"};
  serve::SubmitOptions probe_options;
  probe_options.deadline = config_.probe_deadline;
  probe_options.probe = true;
  ReplicaSubmission submission =
      replica.submit(std::move(sentinel), std::move(probe_options));
  if (!submission.accepted) {
    probe_failures_.inc();
    return false;
  }
  // The service enforces the deadline itself; the longer wait bound only
  // guards against a wedged replica that never resolves the future.
  const auto bound =
      config_.probe_deadline * 2 + std::chrono::milliseconds(100);
  if (submission.future.wait_for(bound) != std::future_status::ready) {
    probe_failures_.inc();
    return false;
  }
  const serve::TagResponse response = submission.future.get();
  // OVERLOADED (and degraded OK) answers prove the replica is alive under
  // load — opening the breaker would shift that load onto its siblings.
  const bool alive = response.status == serve::Status::kOk ||
                     response.status == serve::Status::kOverloaded;
  if (!alive) probe_failures_.inc();
  return alive;
}

void HealthSupervisor::probe_all() {
  std::lock_guard<std::mutex> sweep(probe_mutex_);
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    ReplicaState& state = states_[i];
    if (breakers_.is_open(i)) {
      if (now < state.next_probe) continue;  // still backing off
      // Half-open attempt. A killed replica cannot answer a probe at all,
      // so revive it first — this is the automatic path that replaces
      // manual "#REPLICA revive".
      if (!replicas_[i]->healthy()) {
        replicas_[i]->revive();
        revives_.inc();
        util::log_info("supervisor[", tenant_, "]: revived replica ", i,
                       " for half-open probe");
      }
      if (probe(*replicas_[i])) {
        breakers_.set_open(i, false);
        breaker_closes_.inc();
        state.consecutive_failures = 0;
        state.backoff.reset();
        util::log_info("supervisor[", tenant_, "]: breaker closed for replica ", i);
      } else {
        if (!state.backoff.can_retry()) state.backoff.reset();
        state.next_probe =
            std::chrono::steady_clock::now() + state.backoff.next_delay();
      }
      continue;
    }
    if (probe(*replicas_[i])) {
      state.consecutive_failures = 0;
      continue;
    }
    if (++state.consecutive_failures >= config_.failure_threshold) {
      breakers_.set_open(i, true);
      breaker_opens_.inc();
      state.backoff.reset();
      state.next_probe =
          std::chrono::steady_clock::now() + state.backoff.next_delay();
      util::log_warn("supervisor[", tenant_, "]: breaker OPEN for replica ", i, " after ",
                     state.consecutive_failures, " consecutive probe failures");
    }
  }
}

}  // namespace graphner::router
