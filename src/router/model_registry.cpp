#include "src/router/model_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/serve/protocol.hpp"

namespace graphner::router {

TenantMetrics::TenantMetrics(obs::Registry& registry, const std::string& tenant)
    : requests(registry.counter("tenant." + tenant + ".requests")),
      cache_hits(registry.counter("tenant." + tenant + ".cache_hits")),
      cache_misses(registry.counter("tenant." + tenant + ".cache_misses")),
      deadline_drops(registry.counter("tenant." + tenant + ".deadline_drops")),
      quota_rejected(registry.counter("tenant." + tenant + ".quota_rejected")) {}

Tenant::Tenant(std::string tenant_name, std::string replica_prefix,
               std::shared_ptr<const core::GraphNerModel> tenant_model,
               std::size_t pool_size, const serve::ServiceConfig& service,
               std::size_t vnodes, const SupervisorConfig& health,
               obs::Registry& registry)
    : name(std::move(tenant_name)),
      metric_prefix(std::move(replica_prefix)),
      model(std::move(tenant_model)),
      ring(std::max<std::size_t>(1, pool_size), vnodes),
      breakers(std::max<std::size_t>(1, pool_size)),
      metrics(registry, name) {
  replicas.reserve(breakers.size());
  for (std::size_t i = 0; i < breakers.size(); ++i)
    replicas.push_back(std::make_unique<InProcessReplica>(model, service));
  if (health.probe_interval.count() > 0)
    supervisor =
        std::make_unique<HealthSupervisor>(name, health, replicas, breakers,
                                           registry);
}

void Tenant::stop() {
  // The supervisor probes the replicas; it must be gone before they drain.
  if (supervisor) supervisor->stop();
  for (auto& replica : replicas) replica->stop();
}

ModelRegistry::ModelRegistry(obs::Registry& registry,
                             serve::ServiceConfig service, std::size_t vnodes,
                             SupervisorConfig health)
    : registry_(registry),
      service_(std::move(service)),
      vnodes_(vnodes),
      health_(health) {}

std::shared_ptr<Tenant> ModelRegistry::resolve(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(name.empty() ? kDefault : name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::shared_ptr<Tenant> ModelRegistry::add(
    const std::string& name, std::shared_ptr<const core::GraphNerModel> model,
    std::size_t replicas) {
  if (!serve::valid_model_name(name))
    throw std::invalid_argument("model name \"" + name +
                                "\" is not addressable ([A-Za-z0-9_.-] only)");
  const std::string prefix =
      name == kDefault ? "replica." : "tenant." + name + ".replica.";
  auto tenant = std::make_shared<Tenant>(name, prefix, std::move(model),
                                         replicas, service_, vnodes_, health_,
                                         registry_);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tenants_.emplace(name, tenant).second) return tenant;
  }
  // Already resident: the speculative pool never served a request.
  tenant->stop();
  throw std::invalid_argument("model \"" + name +
                              "\" is already resident (use model swap)");
}

std::shared_ptr<Tenant> ModelRegistry::remove(const std::string& name) {
  if (name == kDefault) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return nullptr;
  std::shared_ptr<Tenant> tenant = it->second;
  tenants_.erase(it);
  return tenant;
}

std::vector<std::shared_ptr<Tenant>> ModelRegistry::list() const {
  std::vector<std::shared_ptr<Tenant>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) out.push_back(tenant);
  }
  // std::map iterates name-sorted already; hoist the default to the front
  // so "model list" always leads with the tenant every bare request uses.
  std::stable_partition(out.begin(), out.end(),
                        [](const auto& t) { return t->name == kDefault; });
  return out;
}

}  // namespace graphner::router
