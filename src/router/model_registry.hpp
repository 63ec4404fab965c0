// ModelRegistry: named resident models — the tenant dimension (§14).
//
// The registry maps wire model names onto Tenants, the one unit of serving
// state: model generation, replica pool + ring, per-replica breakers,
// health supervisor, quota, counters and (learning tier's default tenant
// only) the learn journal. Every tenant is built by the same add(): the
// Router adds "default" — what bare requests resolve to, and the one
// tenant that cannot be dropped — and "#REPLICA model add" the rest. The
// default pool's replicas scrape as "replica.<i>.*", the others' as
// "tenant.<name>.replica.<i>.*".
//
// Concurrency: the map is mutated only by rare admin verbs; the hot
// submit path takes the registry mutex once to copy a shared_ptr<Tenant>.
// A tenant handed out stays alive (and its counters valid) for as long as
// any in-flight request holds it, even across a concurrent "model drop" —
// the dropped tenant's replicas reject new work after stop(), so late
// holders resolve to UNAVAILABLE rather than touching freed state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/token_bucket.hpp"
#include "src/router/hash_ring.hpp"
#include "src/router/learn_log.hpp"
#include "src/router/replica.hpp"
#include "src/router/supervisor.hpp"
#include "src/serve/service.hpp"

namespace graphner::router {

/// Per-tenant instruments, resolved once at registration. The names are
/// "tenant.<name>.requests" etc., so one "#METRICS TSV" scrape shows every
/// tenant side by side and CI can awk conservation per tenant:
///   tenant.<n>.requests == tenant.<n>.cache_hits + tenant.<n>.cache_misses
struct TenantMetrics {
  obs::Counter& requests;       ///< admitted (past quota + model checks)
  obs::Counter& cache_hits;     ///< answered from the cross-request cache
  obs::Counter& cache_misses;   ///< everything admitted that was not a hit
  obs::Counter& deadline_drops; ///< resolved DEADLINE_EXCEEDED
  obs::Counter& quota_rejected; ///< bounced by the token bucket

  TenantMetrics(obs::Registry& registry, const std::string& tenant);
};

/// One learned generation: the learn sequence that produced it and the
/// model swapped into the pool.
struct Generation {
  std::uint64_t seq = 0;
  std::shared_ptr<const core::GraphNerModel> model;
};

/// One resident model and everything that serves it. Members are
/// destroyed in reverse order: the supervisor before what it probes.
struct Tenant {
  std::string name;
  /// "replica." or "tenant.<name>.replica." (the index and '.' follow).
  std::string metric_prefix;
  /// What the pool serves since the last pool-wide swap. Written only
  /// under the Router's swap mutex; the request path never reads it.
  std::shared_ptr<const core::GraphNerModel> model;
  std::vector<std::unique_ptr<ReplicaHandle>> replicas;
  HashRing ring;
  BreakerBoard breakers;
  /// Null when probing is off (SupervisorConfig::probe_interval == 0).
  std::unique_ptr<HealthSupervisor> supervisor;
  /// Non-null only on a learning tier's default tenant, whose model then
  /// changes only through "#REPLICA learn"; generations.back() is what the
  /// pool serves, the rest back rollback.
  std::unique_ptr<LearnLog> learn;
  std::deque<Generation> generations;
  obs::TokenBucket quota;
  TenantMetrics metrics;

  /// Starts `pool_size` (at least one) InProcessReplicas over the model
  /// and, when `health.probe_interval` > 0, the pool's health supervisor.
  Tenant(std::string tenant_name, std::string replica_prefix,
         std::shared_ptr<const core::GraphNerModel> tenant_model,
         std::size_t pool_size, const serve::ServiceConfig& service,
         std::size_t vnodes, const SupervisorConfig& health,
         obs::Registry& registry);

  /// Stop the supervisor, then drain and join every replica. Idempotent.
  void stop();
};

class ModelRegistry {
 public:
  /// Every tenant's replicas run `service`, hash onto `vnodes` ring points
  /// each and are probed per `health`. `registry` must outlive the
  /// ModelRegistry (it owns every tenant's instruments).
  ModelRegistry(obs::Registry& registry, serve::ServiceConfig service,
                std::size_t vnodes, SupervisorConfig health);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Resolve a wire selector: "" and "default" both land on the default
  /// tenant; anything else must be resident. nullptr = unknown model.
  [[nodiscard]] std::shared_ptr<Tenant> resolve(const std::string& name) const;

  /// The tenant bare requests resolve to (null before the Router adds it).
  [[nodiscard]] std::shared_ptr<Tenant> default_tenant() const {
    return resolve({});
  }

  /// Register `model` under `name` with its own replica pool, ring,
  /// breakers and supervisor. Throws std::invalid_argument on an invalid
  /// or already-resident name.
  std::shared_ptr<Tenant> add(const std::string& name,
                              std::shared_ptr<const core::GraphNerModel> model,
                              std::size_t replicas);

  /// Unregister `name` and return its tenant for teardown (the caller
  /// stops it and sweeps the cache outside the registry lock). nullptr
  /// when absent; the default tenant cannot be removed.
  std::shared_ptr<Tenant> remove(const std::string& name);

  /// Every resident tenant, sorted by name with the default first.
  [[nodiscard]] std::vector<std::shared_ptr<Tenant>> list() const;

  /// The wire name of the default tenant.
  static constexpr const char* kDefault = "default";

 private:
  obs::Registry& registry_;
  serve::ServiceConfig service_;
  std::size_t vnodes_;
  SupervisorConfig health_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace graphner::router
