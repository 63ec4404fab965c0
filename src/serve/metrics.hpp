// Serving metrics, redesigned onto the obs metric registry.
//
// ServiceMetrics owns a *private* obs::Registry (not Registry::global():
// every TaggingService — and every unit test — gets isolated counts) and
// resolves its instruments once at construction: sharded counters for the
// admission/outcome tallies, a gauge for queue depth, and histograms for
// queue-wait/decode latency (log10(1+us) bins, quantiles inverted back to
// microseconds at report time) and batch size. The per-worker slot +
// mutex plumbing the old implementation carried is gone — the registry's
// sharding gives the same uncontended-write discipline for free, and the
// worker id disappears from the observer API.
//
// MetricsSnapshot keeps its pre-registry shape (typed counter fields,
// LatencyHistogram accessors, mean_batch_size()) so service callers and
// tests are untouched; it is now materialized as a typed view over the
// registry snapshot it carries.
#pragma once

#include <cstdint>
#include <string>

#include "src/obs/registry.hpp"
#include "src/serve/types.hpp"
#include "src/util/histogram.hpp"

namespace graphner::serve {

/// util::Histogram over log10(1 + us) with report-time inversion.
class LatencyHistogram {
 public:
  LatencyHistogram();
  /// Typed view over an obs histogram snapshot recorded with
  /// obs::latency_us_spec() (bin-domain buckets + raw-microsecond sum).
  explicit LatencyHistogram(const obs::Histogram::Snapshot& snapshot);

  void record_us(double us) noexcept;
  void merge(const LatencyHistogram& other) {
    histogram_.merge(other.histogram_);
    sum_us_ += other.sum_us_;
  }

  [[nodiscard]] std::size_t total() const noexcept { return histogram_.total(); }
  [[nodiscard]] double mean_us() const noexcept;
  [[nodiscard]] double max_us() const noexcept;
  /// Quantile in microseconds (inverse of the log transform).
  [[nodiscard]] double quantile_us(double q) const noexcept;

 private:
  util::Histogram histogram_;
  double sum_us_ = 0.0;  ///< arithmetic mean support (mean of logs is not it)
};

/// Point-in-time typed view over the service registry. Copyable, detached
/// from the live service.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;          ///< admission attempts
  std::uint64_t rejected_overload = 0;  ///< queue-full rejections
  std::uint64_t rejected_shutdown = 0;  ///< submitted after stop()
  std::uint64_t rejected_unknown_model = 0;  ///< bad SubmitOptions::model
  std::uint64_t completed = 0;          ///< responses produced by workers
  std::uint64_t errors = 0;             ///< decode exceptions
  std::uint64_t batches = 0;            ///< micro-batches decoded
  std::uint64_t coalesced = 0;          ///< duplicates served by a shared decode
  std::uint64_t deadline_expired = 0;   ///< shed before decode (deadline passed)
  std::uint64_t degraded = 0;           ///< answered by the degraded decode path

  LatencyHistogram queue_wait;  ///< enqueue -> batch dequeue
  LatencyHistogram decode;      ///< feature extraction + Viterbi
  util::Histogram batch_size{0.0, 256.0, 256};

  /// The registry snapshot this view was materialized from.
  obs::RegistrySnapshot raw;

  [[nodiscard]] double mean_batch_size() const noexcept {
    return batch_size.mean();
  }
};

class ServiceMetrics {
 public:
  ServiceMetrics();
  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  // Observer hooks (any thread; a counter bump is one uncontended RMW).
  void on_submitted() noexcept { submitted_.inc(); }
  void on_rejected(Status status) noexcept;
  void on_batch(std::size_t batch_size) noexcept;
  void on_completed(double queue_us, double decode_us, bool error,
                    bool coalesced = false, bool degraded = false) noexcept;
  /// A queued request whose deadline passed before decode.
  void on_expired(double queue_us) noexcept;
  /// Gauges are observations, not state — settable through a const ref so
  /// scrape paths can refresh the depth right before snapshotting.
  void set_queue_depth(std::size_t depth) const noexcept {
    queue_depth_.set(static_cast<double>(depth));
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

 private:
  obs::Registry registry_;  ///< must precede the instrument references
  obs::Counter& submitted_;
  obs::Counter& rejected_overload_;
  obs::Counter& rejected_shutdown_;
  obs::Counter& rejected_unknown_model_;
  obs::Counter& completed_;
  obs::Counter& errors_;
  obs::Counter& batches_;
  obs::Counter& coalesced_;
  obs::Counter& deadline_expired_;
  obs::Counter& degraded_;
  obs::Gauge& queue_depth_;
  obs::Histogram& queue_wait_;
  obs::Histogram& decode_;
  obs::Histogram& batch_size_;
};

}  // namespace graphner::serve
