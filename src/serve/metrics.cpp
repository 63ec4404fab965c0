#include "src/serve/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace graphner::serve {
namespace {

// The bin transform of obs::latency_us_spec(): log10(1 + us), so 0 maps
// to 0 and ~100 s maps to 8 with ~7% relative resolution from 256 bins.
[[nodiscard]] double to_log(double us) noexcept {
  return std::log10(1.0 + std::max(0.0, us));
}

[[nodiscard]] double from_log(double log_value) noexcept {
  return std::pow(10.0, log_value) - 1.0;
}

[[nodiscard]] constexpr obs::HistogramSpec batch_size_spec() noexcept {
  return obs::HistogramSpec{0.0, 256.0, 256, obs::Scale::kLinear};
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : histogram_(obs::latency_us_spec().lo, obs::latency_us_spec().hi,
                 obs::latency_us_spec().bins) {}

LatencyHistogram::LatencyHistogram(const obs::Histogram::Snapshot& snapshot)
    : histogram_(snapshot.buckets), sum_us_(snapshot.sum) {}

void LatencyHistogram::record_us(double us) noexcept {
  histogram_.add(to_log(us));
  sum_us_ += std::max(0.0, us);
}

double LatencyHistogram::mean_us() const noexcept {
  return histogram_.total() == 0
             ? 0.0
             : sum_us_ / static_cast<double>(histogram_.total());
}

double LatencyHistogram::max_us() const noexcept {
  return histogram_.total() == 0 ? 0.0 : from_log(histogram_.max_seen());
}

double LatencyHistogram::quantile_us(double q) const noexcept {
  return histogram_.total() == 0 ? 0.0 : from_log(histogram_.quantile(q));
}

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

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot out;
  out.raw = registry_.snapshot();
  out.submitted = out.raw.counter_value("submitted");
  out.rejected_overload = out.raw.counter_value("rejected_overload");
  out.rejected_shutdown = out.raw.counter_value("rejected_shutdown");
  out.rejected_unknown_model = out.raw.counter_value("rejected_unknown_model");
  out.completed = out.raw.counter_value("completed");
  out.errors = out.raw.counter_value("errors");
  out.batches = out.raw.counter_value("batches");
  out.coalesced = out.raw.counter_value("coalesced");
  out.deadline_expired = out.raw.counter_value("deadline_expired");
  out.degraded = out.raw.counter_value("degraded");
  for (const auto& h : out.raw.histograms) {
    if (h.name == "queue_wait_us")
      out.queue_wait = LatencyHistogram(h.data);
    else if (h.name == "decode_us")
      out.decode = LatencyHistogram(h.data);
    else if (h.name == "batch_size")
      out.batch_size = h.data.buckets;
  }
  return out;
}

}  // namespace graphner::serve
