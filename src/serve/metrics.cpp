#include "src/serve/metrics.hpp"

namespace graphner::serve {
namespace {

[[nodiscard]] constexpr obs::HistogramSpec batch_size_spec() noexcept {
  return obs::HistogramSpec{0.0, 256.0, 256, obs::Scale::kLinear};
}

}  // namespace

ServiceMetrics::ServiceMetrics()
    : submitted_(registry_.counter("submitted")),
      rejected_overload_(registry_.counter("rejected_overload")),
      rejected_shutdown_(registry_.counter("rejected_shutdown")),
      rejected_unknown_model_(registry_.counter("rejected_unknown_model")),
      completed_(registry_.counter("completed")),
      errors_(registry_.counter("errors")),
      batches_(registry_.counter("batches")),
      coalesced_(registry_.counter("coalesced")),
      deadline_expired_(registry_.counter("deadline_expired")),
      degraded_(registry_.counter("degraded")),
      queue_depth_(registry_.gauge("queue_depth")),
      queue_wait_(registry_.histogram("queue_wait_us", obs::latency_us_spec())),
      decode_(registry_.histogram("decode_us", obs::latency_us_spec())),
      batch_size_(registry_.histogram("batch_size", batch_size_spec())) {}

void ServiceMetrics::on_rejected(Status status) noexcept {
  if (status == Status::kOverloaded)
    rejected_overload_.inc();
  else if (status == Status::kShutdown)
    rejected_shutdown_.inc();
  else if (status == Status::kUnknownModel)
    rejected_unknown_model_.inc();
}

void ServiceMetrics::on_batch(std::size_t batch_size) noexcept {
  batches_.inc();
  batch_size_.record(static_cast<double>(batch_size));
}

void ServiceMetrics::on_completed(double queue_us, double decode_us, bool error,
                                  bool coalesced, bool degraded) noexcept {
  completed_.inc();
  if (error) errors_.inc();
  if (coalesced) coalesced_.inc();
  if (degraded) degraded_.inc();
  queue_wait_.record(queue_us);
  decode_.record(decode_us);
}

void ServiceMetrics::on_expired(double queue_us) noexcept {
  deadline_expired_.inc();
  // The wait is still real signal: expiries cluster exactly when queue
  // waits blow out, which is what the histogram is for.
  queue_wait_.record(queue_us);
}

}  // namespace graphner::serve
