// Serving metrics: the instruments a TaggingService records into.
//
// ServiceMetrics owns a *private* obs::Registry (not Registry::global():
// every TaggingService — and every unit test — gets isolated counts) and
// resolves its instruments once at construction: sharded counters for the
// admission/outcome tallies, a gauge for queue depth, and histograms for
// queue-wait/decode latency (obs::latency_us_spec(): log10(1+us) bins) and
// batch size. The registry's sharding keeps every record an uncontended
// write, so the observer API carries no worker id.
//
// The read side is the registry's own obs::RegistrySnapshot: counters by
// counter_value("completed"), distributions by histogram("decode_us"),
// whose quantiles come back in microseconds. The #METRICS scrape exports
// the same snapshot with a "serve." prefix.
#pragma once

#include <cstddef>

#include "src/obs/registry.hpp"
#include "src/serve/types.hpp"

namespace graphner::serve {

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
