#include "src/router/replica.hpp"

#include <utility>

#include "src/util/logging.hpp"

namespace graphner::router {

InProcessReplica::InProcessReplica(
    std::shared_ptr<const core::GraphNerModel> model,
    serve::ServiceConfig config)
    : config_(config), model_(std::move(model)) {
  service_ = std::make_shared<serve::TaggingService>(*model_, config_);
  healthy_ = true;
}

InProcessReplica::~InProcessReplica() { stop(); }

ReplicaSubmission InProcessReplica::submit(text::Sentence sentence,
                                           serve::SubmitOptions options) {
  std::shared_ptr<serve::TaggingService> service;
  std::uint64_t fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!healthy_ || !service_) return {};
    service = service_;
    fingerprint = model_->fingerprint();
  }
  // The router already resolved the tenant onto this replica; the inner
  // service must not second-guess the name against its own default.
  options.model.clear();
  // Submitted outside the lock: submit() never blocks, but a concurrent
  // kill() may stop the service first — then the future resolves with
  // SHUTDOWN and the router fails over to a sibling.
  ReplicaSubmission out;
  out.future = service->submit(std::move(sentence), std::move(options));
  out.fingerprint = fingerprint;
  out.accepted = true;
  return out;
}

bool InProcessReplica::healthy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return healthy_;
}

std::uint64_t InProcessReplica::fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_ ? model_->fingerprint() : 0;
}

std::shared_ptr<const text::LabelSet> InProcessReplica::labels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!labels_ && model_)
    labels_ = std::make_shared<const text::LabelSet>(model_->labels());
  return labels_;
}

void InProcessReplica::retire_service() {
  std::shared_ptr<serve::TaggingService> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    old = std::move(service_);
    service_ = nullptr;
    healthy_ = false;
  }
  drain(std::move(old));
}

void InProcessReplica::drain(std::shared_ptr<serve::TaggingService> old) {
  if (!old) return;
  old->stop();  // graceful: drains queued work, every future resolves
  const obs::RegistrySnapshot terminal = old->metrics();
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.merge(terminal);
}

void InProcessReplica::kill() { retire_service(); }

void InProcessReplica::revive() {
  std::shared_ptr<const core::GraphNerModel> model;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || healthy_) return;
    model = model_;
  }
  auto service = std::make_shared<serve::TaggingService>(*model, config_);
  std::lock_guard<std::mutex> lock(mutex_);
  service_ = std::move(service);
  healthy_ = true;
}

void InProcessReplica::swap_model(
    std::shared_ptr<const core::GraphNerModel> model) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
  }
  // Make before break: the new service is up before it is published, and
  // publishing never drops healthy_, so the router always sees a routable
  // replica. A request that raced onto the old service still resolves
  // (queued work drains under the old model; a late submit answers
  // SHUTDOWN and the router fails over).
  auto service = std::make_shared<serve::TaggingService>(*model, config_);
  // Declared first so it outlives `old`: the old service decodes against
  // the old model until its drain completes.
  std::shared_ptr<const core::GraphNerModel> old_model;
  std::shared_ptr<serve::TaggingService> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      old = std::move(service);  // stopped mid-swap: never publish
    } else {
      old_model = std::exchange(model_, std::move(model));
      old = std::exchange(service_, std::move(service));
      labels_ = nullptr;  // re-materialized from the new model on demand
      healthy_ = true;
    }
  }
  drain(std::move(old));
}

obs::RegistrySnapshot InProcessReplica::metrics_snapshot() const {
  std::shared_ptr<serve::TaggingService> service;
  obs::RegistrySnapshot out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = retired_;
    service = service_;
  }
  if (service) out.merge(service->metrics());
  return out;
}

void InProcessReplica::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  retire_service();
}

}  // namespace graphner::router
