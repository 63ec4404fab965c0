// Router: the sharded multi-replica serving tier (DESIGN.md §11).
//
// A Router is a TagService over N ReplicaHandles, so SocketServer fronts
// it exactly like a single TaggingService. Per request:
//
//   1. consistent-hash the normalized sentence key onto the replica ring
//      (repeats pin to a warm replica and its coalescing cache);
//   2. consult the cross-request decode cache (sentence key + decode
//      options + model fingerprint) — a hit answers in O(1) with no
//      replica touched;
//   3. on a miss, submit to the owner replica (skipping unhealthy ones)
//      and return a lazily-evaluated future that, when waited on,
//      fails over to ring-order siblings with util::Backoff if the
//      replica died mid-request, and inserts OK responses into the cache.
//
// Multi-tenancy (DESIGN.md §14): a ModelRegistry maps wire model names
// onto Tenants, and every tenant — the default one included — owns its
// replica pool, ring, circuit breakers, health supervisor, quota and
// counters. The Router itself is admission + cache + tenant lookup +
// failover. Bare requests resolve to the "default" tenant (the model the
// Router was constructed with), so they are byte-identical to the
// pre-tenancy tier, while "#REPLICA model add|swap|drop|list <name>
// [<path>]" manages the others. The cache identity gains the tenant
// dimension (sentence key + decode options + model name + fingerprint),
// so tenants can never observe each other's entries even under
// fingerprint collision. Per-tenant token-bucket quotas ("#REPLICA quota
// <name> <rate> <burst>") bounce over-quota requests with the structured
// QUOTA_EXCEEDED status before they reach a replica; unknown selectors
// answer UNKNOWN_MODEL. Neither counts into router.requests — the
// conservation laws below are over admitted requests only.
//
// Administration rides the wire as "#REPLICA kill|revive|swap|status"
// (TagService::admin), addressing the default tenant's pool: kill/revive
// drive the chaos drill, swap hot-swaps one replica's model from a file
// (text or mmap format, auto-sniffed) and invalidates the cache
// generation no replica serves anymore. With learn_enabled, "#REPLICA
// learn text|file|status|rollback" drives the online-learning path of the
// default tenant: the batch is absorbed by an OnlineLearner (incremental
// k-NN append + localized re-propagation, DESIGN.md §12), gated by a
// canary decode against what the pool serves, journaled to the learn WAL
// (LearnLog — crash replay reaches byte-identical learned state, DESIGN.md
// §13), and only then hot-swapped into every replica of the pool through
// the same fingerprint/cache-invalidation machinery. rollback
// retroactively quarantines the newest committed batch and restores the
// previous generation. A learning tenant changes model only through that
// path: "swap <i>" and "model swap default" are refused on it.
//
// With health.probe_interval > 0 every tenant's HealthSupervisor probes
// its pool with sentinel decodes; consecutive failures open a per-replica
// circuit breaker that routes the tenant's traffic around the replica
// until a half-open probe (backed off, auto-reviving dead replicas) closes
// it again. Fail-static is judged per tenant: when every breaker of a
// tenant is open, that tenant routes on health alone.
//
// Metrics: router.*, cache.* and tenant.* from the router's own registry,
// each replica's counters under its tenant's prefix — "replica.<i>." for
// the default tenant, "tenant.<n>.replica.<i>." for the others (monotone
// across kill/revive) — plus the process-global registry and fault
// counters: one scrape shows the whole tier. Conservation laws CI asserts
// after a drain, each one sum over tenants:
//
//   router.requests == cache.hits + cache.misses
//   sum_i replica.<i>.submitted + sum_n,i tenant.<n>.replica.<i>.submitted ==
//       cache.misses - router.unavailable + router.failovers
//   tenant.<n>.requests == tenant.<n>.cache_hits + tenant.<n>.cache_misses
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "src/graphner/learner.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/router/learn_log.hpp"
#include "src/router/lru_cache.hpp"
#include "src/router/model_registry.hpp"
#include "src/router/replica.hpp"
#include "src/router/supervisor.hpp"
#include "src/serve/tag_service.hpp"
#include "src/util/fault.hpp"

namespace graphner::router {

struct RouterConfig {
  /// Replicas of the default tenant (the model the Router is built on).
  std::size_t replicas = 2;
  /// Worker pool / batching / deadline configuration of every replica.
  serve::ServiceConfig replica_service;
  bool cache_enabled = true;
  LruCacheConfig cache;
  /// Virtual nodes per replica on the consistent-hash ring.
  std::size_t vnodes = 64;
  /// Replicas per *added* tenant model ("#REPLICA model add"); the
  /// default model keeps `replicas`. Tenant replica pools share the
  /// replica_service configuration.
  std::size_t tenant_replicas = 1;
  /// Backoff between failover attempts once the whole ring has been
  /// walked without an answer (a replica may be mid-revive).
  util::BackoffPolicy failover_backoff{std::chrono::milliseconds(10),
                                       std::chrono::milliseconds(200),
                                       2.0,
                                       0.2,
                                       3};
  /// Enable the online "#REPLICA learn" path: the default tenant keeps an
  /// OnlineLearner over the initial model and hot-swaps learned forks into
  /// every replica of its pool after each absorbed batch.
  bool learn_enabled = false;
  core::OnlineLearnerConfig learn;
  /// Durable learning (DESIGN.md §13): directory for the learn WAL +
  /// snapshots. Empty = in-memory only (learned state dies with the
  /// process); set, committed batches are journaled before any swap and
  /// replayed on startup to byte-identical learned state.
  std::string learn_wal_dir;
  /// Committed batches between snapshot compactions of the learn WAL.
  std::size_t learn_snapshot_every = 32;
  /// Held-out canary sentences every learned fork must decode before it
  /// swaps in; empty disables the gate.
  std::vector<text::Sentence> canary;
  /// Max fraction of canary sentences whose blended tags may differ
  /// between the serving generation and the fork. A batch that drifts
  /// past this is quarantined (journaled, skipped on replay) and never
  /// reaches a replica. Negative = quarantine every gated batch
  /// (deterministic chaos drills).
  double canary_max_disagreement = 0.25;
  /// "#REPLICA learn file" ingestion cap — larger files are rejected unread.
  std::uint64_t learn_max_file_bytes = 8ULL << 20;
  /// Learned generations retained for "#REPLICA learn rollback" (min 2
  /// once a batch commits: current + previous).
  std::size_t learn_generations = 4;
  /// Health supervision of every tenant's pool; probe_interval 0
  /// (default) leaves replica health manual (#REPLICA kill/revive).
  SupervisorConfig health;
};

class Router : public serve::TagService {
 public:
  /// The default tenant's replicas start on `model` (or, on a durable
  /// learning tier, on the generation WAL replay recovers). The model is
  /// shared, not copied — with an mmap-loaded model the replicas share one
  /// page-cache copy of the weights.
  Router(std::shared_ptr<const core::GraphNerModel> model, RouterConfig config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] std::future<serve::TagResponse> submit(
      text::Sentence sentence, serve::SubmitOptions options) override;
  using serve::TagService::submit;  ///< positional (deadline, decode) sugar

  [[nodiscard]] obs::RegistrySnapshot observability_snapshot() const override;

  /// The admin verb table documented in protocol.hpp: replica lifecycle
  /// (kill/revive/swap/status), tenant models (model add|swap|drop|list,
  /// quota), and the learn subtree when learn_enabled.
  [[nodiscard]] std::string admin(const std::string& command) override;

  /// In-process mirror of "#REPLICA model add": register an additional
  /// resident model under `name`. Throws std::invalid_argument on an
  /// invalid or already-resident name.
  void add_model(const std::string& name,
                 std::shared_ptr<const core::GraphNerModel> model);

  /// The tenant registry (default tenant + every added model). Each
  /// tenant exposes its breakers and supervisor, so tests can drive
  /// breaker states and probe sweeps deterministically.
  [[nodiscard]] const ModelRegistry& models() const noexcept { return models_; }

  /// The default tenant's durable learn journal (and its learner),
  /// nullptr unless learn_enabled.
  [[nodiscard]] const LearnLog* learn_log() const {
    return models_.default_tenant()->learn.get();
  }

  /// The default tenant's pool (what "#REPLICA kill|revive|swap <i>"
  /// address).
  [[nodiscard]] std::size_t replica_count() const {
    return models_.default_tenant()->replicas.size();
  }
  [[nodiscard]] ReplicaHandle& replica(std::size_t i) {
    return *models_.default_tenant()->replicas[i];
  }
  [[nodiscard]] ShardedLruCache& cache() noexcept { return cache_; }

  /// Stop every tenant (supervisor first, then its replicas). Idempotent;
  /// also run by the destructor.
  void stop() {
    for (const auto& tenant : models_.list()) tenant->stop();
  }

 private:
  /// The synchronous tail of a request: wait on the primary submission,
  /// fail over to siblings *within the tenant's pool* if the replica died,
  /// cache OK responses under the tenant-scoped base key.
  [[nodiscard]] serve::TagResponse resolve(ReplicaSubmission primary,
                                           std::size_t used,
                                           std::vector<std::size_t> order,
                                           text::Sentence sentence,
                                           serve::SubmitOptions options,
                                           std::string base_key,
                                           std::shared_ptr<Tenant> tenant);

  [[nodiscard]] static bool needs_failover(serve::Status status) noexcept {
    // A killed/draining replica answers SHUTDOWN; UNAVAILABLE means a
    // mid-swap reject. Both are replica-local conditions a sibling can
    // absorb. OVERLOADED/DEADLINE_EXCEEDED are load signals that must
    // reach the client's own backoff instead of multiplying load here.
    return status == serve::Status::kShutdown ||
           status == serve::Status::kUnavailable;
  }

  /// True when replica `idx` of `tenant` may take traffic: healthy and its
  /// breaker is not open. Callers pass ignore_breakers when every breaker
  /// of the tenant is open (fail-static: when the probe path itself is
  /// what broke, routing around everything would turn a monitoring bug
  /// into an outage).
  [[nodiscard]] static bool routable(const Tenant& tenant, std::size_t idx,
                                     bool ignore_breakers) {
    return tenant.replicas[idx]->healthy() &&
           (ignore_breakers || !tenant.breakers.is_open(idx));
  }

  /// Fraction of canary sentences whose blended decode differs between
  /// `current` and `fork` (the swap gate; call with canary non-empty).
  [[nodiscard]] double canary_disagreement(
      const core::GraphNerModel& current, const core::GraphNerModel& fork);
  /// The "#REPLICA learn ..." admin subtree.
  [[nodiscard]] std::string admin_learn(std::istringstream& in);
  /// The "#REPLICA model add|swap|drop|list" tenant-management subtree.
  [[nodiscard]] std::string admin_model(std::istringstream& in);
  /// The "#REPLICA quota <model> <rate> <burst> | <model> off" subtree.
  [[nodiscard]] std::string admin_quota(std::istringstream& in);
  /// Swap `model` into every replica of `tenant`, record it as
  /// tenant.model and drop cache generations the pool no longer serves;
  /// returns entries invalidated. Caller holds swap_mutex_.
  std::size_t swap_pool(Tenant& tenant,
                        std::shared_ptr<const core::GraphNerModel> model);

  RouterConfig config_;
  obs::Registry registry_;
  /// Tenant registry; declared after registry_ (its instruments live
  /// there) and before cache_ so teardown order is safe.
  ModelRegistry models_;
  ShardedLruCache cache_;
  obs::Counter& requests_;
  obs::Counter& failovers_;
  obs::Counter& unavailable_;
  obs::Counter& swaps_;
  obs::Counter& cache_misses_;  ///< same instrument the cache counts into
  obs::Counter& unknown_model_;  ///< UNKNOWN_MODEL rejections (pre-admission)
  obs::Counter& quota_rejected_;  ///< QUOTA_EXCEEDED rejections (pre-admission)
  /// Serializes every model-swap admin path — learn batches + fork swaps,
  /// tenant swaps/drops AND single-replica "#REPLICA swap" — so interleaved
  /// swaps (each admin command runs on its own connection thread) cannot
  /// invalidate a generation mid-sweep or strand an orphaned cache
  /// generation. Never taken by submit or resolve.
  std::mutex swap_mutex_;
};

}  // namespace graphner::router
