// ReplicaHandle: one health-checked serving replica behind the router.
//
// The abstraction is what the router programs against — submit, health,
// kill/revive, atomic model hot-swap, metrics — so an in-process worker
// pool (InProcessReplica, below) and a future forked-process replica are
// interchangeable behind it.
//
// InProcessReplica wraps one TaggingService over a shared_ptr'd const
// model. Lifecycle transitions (kill, revive, swap_model) replace the
// service atomically under a mutex; the outgoing service is stopped
// *outside* the lock (stop() drains every queued request, so no future is
// ever abandoned) and its terminal counters are folded into a retained
// accumulator — per-replica metrics survive any number of kill/revive
// cycles, which is what lets CI assert exact conservation after a chaos
// run. Models are shared_ptr so N replicas can point at one mmap-loaded
// instance (one page-cache copy of the weights) and a swap frees the old
// model only when its last replica lets go.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/serve/service.hpp"
#include "src/serve/types.hpp"
#include "src/text/sentence.hpp"

namespace graphner::router {

/// The outcome of handing a request to a replica. When `accepted` is
/// false the replica took nothing (down or mid-swap) and the caller
/// should try a sibling; otherwise `future` resolves like any service
/// submit and `fingerprint` identifies the model generation that will
/// answer it (the cache-key component).
struct ReplicaSubmission {
  std::future<serve::TagResponse> future;
  std::uint64_t fingerprint = 0;
  bool accepted = false;
};

class ReplicaHandle {
 public:
  virtual ~ReplicaHandle() = default;

  /// `options.model` is already resolved by the router's registry — a
  /// replica serves exactly one model — and `options.key` carries the
  /// ingestion-time sentence key, so failover resubmits never re-derive
  /// it.
  [[nodiscard]] virtual ReplicaSubmission submit(
      text::Sentence sentence, serve::SubmitOptions options) = 0;

  [[nodiscard]] virtual bool healthy() const = 0;
  /// Current model generation (stable while no swap is in flight).
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
  /// The serving model's label inventory, for responses the router
  /// fabricates itself (cache hits never touch a service worker).
  [[nodiscard]] virtual std::shared_ptr<const text::LabelSet> labels()
      const = 0;

  /// Stop serving: drain what is queued, then reject everything until
  /// revive(). Safe to call concurrently with submits.
  virtual void kill() = 0;
  /// Fresh worker pool over the current model.
  virtual void revive() = 0;
  /// Atomic hot-swap to `model`: new requests decode under it as soon as
  /// the swap completes; queued requests finish under the old model. The
  /// replica stays healthy throughout (make before break).
  virtual void swap_model(std::shared_ptr<const core::GraphNerModel> model) = 0;

  /// This replica's counters/histograms (bare names: "submitted", ...),
  /// including everything accumulated by services retired through
  /// kill/revive/swap — monotone across lifecycle transitions.
  [[nodiscard]] virtual obs::RegistrySnapshot metrics_snapshot() const = 0;

  /// Terminal stop (drain + join); the handle stays unhealthy forever.
  virtual void stop() = 0;
};

class InProcessReplica : public ReplicaHandle {
 public:
  InProcessReplica(std::shared_ptr<const core::GraphNerModel> model,
                   serve::ServiceConfig config);
  ~InProcessReplica() override;

  [[nodiscard]] ReplicaSubmission submit(text::Sentence sentence,
                                         serve::SubmitOptions options) override;
  [[nodiscard]] bool healthy() const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;
  [[nodiscard]] std::shared_ptr<const text::LabelSet> labels() const override;
  void kill() override;
  void revive() override;
  void swap_model(std::shared_ptr<const core::GraphNerModel> model) override;
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const override;
  void stop() override;

 private:
  /// Detach the live service (marking the replica unhealthy), then drain it.
  void retire_service();
  /// Stop a detached service outside the lock and fold its counters into
  /// retired_ (no-op on null).
  void drain(std::shared_ptr<serve::TaggingService> old);

  serve::ServiceConfig config_;
  mutable std::mutex mutex_;
  std::shared_ptr<const core::GraphNerModel> model_;
  /// shared_ptr, not unique: a concurrent submit may still hold the
  /// service while a swap retires it; the drain in stop() resolves every
  /// future before the last reference drops.
  std::shared_ptr<serve::TaggingService> service_;
  /// Lazily materialized copy of the model's label inventory, shared by
  /// every cache-hit response; invalidated on swap_model.
  mutable std::shared_ptr<const text::LabelSet> labels_;
  bool healthy_ = false;
  bool stopped_ = false;
  /// Metrics of every retired service, folded by RegistrySnapshot::merge.
  obs::RegistrySnapshot retired_;
};

}  // namespace graphner::router
