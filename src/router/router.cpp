#include "src/router/router.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <utility>

#include "src/serve/protocol.hpp"
#include "src/util/logging.hpp"

namespace graphner::router {
namespace {

[[nodiscard]] std::future<serve::TagResponse> ready_response(
    serve::TagResponse response) {
  std::promise<serve::TagResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

/// The full cache identity: base (sentence key + options) + generation.
[[nodiscard]] std::string cache_key(const std::string& base_key,
                                    std::uint64_t fingerprint) {
  return base_key + '\x1e' + fingerprint_hex(fingerprint);
}

/// Fail-static: with every breaker of a tenant open, its breakers are
/// ignored and the tenant routes on health alone.
[[nodiscard]] bool all_breakers_open(const Tenant& tenant) noexcept {
  return tenant.breakers.open_count() >= tenant.replicas.size();
}

/// The reply to a swap verb aimed at a learning tenant: its model moves
/// only through "#REPLICA learn", whose generations, canary and rollback
/// all assume the pool serves the learner's newest fork.
[[nodiscard]] std::string learning_tenant_refusal(const std::string& verb,
                                                  const Tenant& tenant) {
  return "ERROR #REPLICA " + verb + ": model \"" + tenant.name +
         "\" is learning online and changes only through #REPLICA learn\n";
}

}  // namespace

Router::Router(std::shared_ptr<const core::GraphNerModel> model,
               RouterConfig config)
    : config_(config),
      models_(registry_, config.replica_service, config.vnodes, config.health),
      cache_(config.cache, registry_),
      requests_(registry_.counter("router.requests")),
      failovers_(registry_.counter("router.failovers")),
      unavailable_(registry_.counter("router.unavailable")),
      swaps_(registry_.counter("router.swaps")),
      cache_misses_(registry_.counter("cache.misses")),
      unknown_model_(registry_.counter("router.unknown_model")),
      quota_rejected_(registry_.counter("router.quota_rejected")) {
  std::shared_ptr<const core::GraphNerModel> serving = model;
  std::unique_ptr<LearnLog> learn;
  if (config.learn_enabled) {
    // Recover the durable learned state (snapshot + WAL replay) before
    // any replica starts: committed batches survive a crash, so the tier
    // resumes serving exactly the generation it last swapped.
    learn = std::make_unique<LearnLog>(
        LearnLogConfig{config.learn_wal_dir, config.learn_snapshot_every},
        model, config.learn, registry_);
    if (learn->learner().vertex_count() > 0)
      serving = learn->learner().snapshot_model();
  }
  const std::shared_ptr<Tenant> tenant =
      models_.add(ModelRegistry::kDefault, serving, config.replicas);
  if (learn) {
    tenant->generations.push_back({learn->last_seq(), serving});
    tenant->learn = std::move(learn);
  }
  registry_.gauge("router.replicas")
      .set(static_cast<double>(tenant->replicas.size()));
  registry_.gauge("router.cache_enabled")
      .set(config.cache_enabled ? 1.0 : 0.0);
  util::log_info("router: ", tenant->replicas.size(), " replica(s), cache ",
                 config.cache_enabled
                     ? "on (" + std::to_string(cache_.capacity()) + " entries)"
                     : "off",
                 ", model fingerprint ",
                 fingerprint_hex(serving->fingerprint()),
                 tenant->supervisor ? ", health supervisor on" : "");
}

Router::~Router() { stop(); }

std::future<serve::TagResponse> Router::submit(text::Sentence sentence,
                                               serve::SubmitOptions options) {
  // Admission control runs before the request ledger: an UNKNOWN_MODEL or
  // QUOTA_EXCEEDED rejection never touches router.requests or the cache
  // counters, so the conservation laws stay exact over admitted traffic.
  std::shared_ptr<Tenant> tenant = models_.resolve(options.model);
  if (!tenant) {
    unknown_model_.inc();
    serve::TagResponse response;
    response.status = serve::Status::kUnknownModel;
    response.error =
        "unknown model \"" + options.model + "\" (see #REPLICA model list)";
    return ready_response(std::move(response));
  }
  if (!tenant->quota.try_acquire()) {
    quota_rejected_.inc();
    tenant->metrics.quota_rejected.inc();
    serve::TagResponse response;
    response.status = serve::Status::kQuotaExceeded;
    response.error = "tenant \"" + tenant->name + "\" is over quota; back off";
    return ready_response(std::move(response));
  }

  requests_.inc();
  tenant->metrics.requests.inc();
  // The sentence key is computed once at protocol ingestion and threaded
  // through options.key; derive it only for direct API callers.
  if (options.key.empty())
    options.key = serve::sentence_key(sentence.tokens);
  auto& pool = tenant->replicas;
  std::vector<std::size_t> order = tenant->ring.order(options.key);

  // The tenant name joins the cache identity so two tenants can never
  // observe each other's entries, even under fingerprint collision.
  std::string base_key = options.key;
  base_key += '\x1e';
  if (options.decode) base_key += options.decode->to_string();
  base_key += '\x1e';
  base_key += tenant->name;

  // Cache lookup under the generation the owner would decode with. Every
  // admitted request lands in exactly one of cache.{hits,misses} — that is
  // the conservation law CI checks — so the disabled/unroutable paths
  // count a miss explicitly instead of skipping the ledger.
  // Open circuit breakers route a replica out exactly like bad health —
  // unless every breaker of the tenant is open (fail-static; see
  // routable()).
  const bool ignore_breakers = all_breakers_open(*tenant);

  bool counted = false;
  if (config_.cache_enabled) {
    for (const std::size_t idx : order) {
      if (!routable(*tenant, idx, ignore_breakers)) continue;
      counted = true;
      if (auto hit = cache_.get(cache_key(base_key, pool[idx]->fingerprint()))) {
        tenant->metrics.cache_hits.inc();
        serve::TagResponse response;
        response.tags = std::move(*hit);
        response.coalesced = true;  // served by a previous request's decode
        response.labels = pool[idx]->labels();
        return ready_response(std::move(response));
      }
      break;
    }
  }
  if (!counted) cache_misses_.inc();
  tenant->metrics.cache_misses.inc();

  // Submit to the owner (first routable on the ring) *now* — pipelining
  // depends on submit never blocking — and defer the wait/failover/cache
  // tail to the future's get().
  ReplicaSubmission primary;
  std::size_t used = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t idx = order[i];
    if (!routable(*tenant, idx, ignore_breakers)) continue;
    primary = pool[idx]->submit(sentence, options);
    if (primary.accepted) {
      used = idx;
      break;
    }
  }
  if (used == order.size()) {
    unavailable_.inc();
    serve::TagResponse response;
    response.status = serve::Status::kUnavailable;
    response.error = "no healthy replica";
    return ready_response(std::move(response));
  }

  return std::async(
      std::launch::deferred,
      [this, primary = std::move(primary), used, order = std::move(order),
       sentence = std::move(sentence), options = std::move(options),
       base_key = std::move(base_key), tenant = std::move(tenant)]() mutable {
        return resolve(std::move(primary), used, std::move(order),
                       std::move(sentence), std::move(options),
                       std::move(base_key), std::move(tenant));
      });
}

serve::TagResponse Router::resolve(ReplicaSubmission primary, std::size_t used,
                                   std::vector<std::size_t> order,
                                   text::Sentence sentence,
                                   serve::SubmitOptions options,
                                   std::string base_key,
                                   std::shared_ptr<Tenant> tenant) {
  auto& pool = tenant->replicas;
  serve::TagResponse response = primary.future.get();
  std::uint64_t fingerprint = primary.fingerprint;

  if (needs_failover(response.status)) {
    // The owner died under the request (kill mid-flood answers queued work
    // but rejects the rest with SHUTDOWN). Walk the ring-order siblings;
    // back off between rounds in case every sibling is mid-revive.
    util::Backoff retry(config_.failover_backoff);
    std::size_t last_failed = used;
    for (;;) {
      bool attempted = false;
      const bool ignore_breakers = all_breakers_open(*tenant);
      for (const std::size_t idx : order) {
        if (idx == last_failed) continue;
        if (!routable(*tenant, idx, ignore_breakers)) continue;
        // The resubmit reuses options verbatim — including the
        // ingestion-time sentence key — so failover never re-normalizes.
        ReplicaSubmission retry_sub = pool[idx]->submit(sentence, options);
        if (!retry_sub.accepted) continue;
        failovers_.inc();
        attempted = true;
        response = retry_sub.future.get();
        fingerprint = retry_sub.fingerprint;
        last_failed = idx;
        break;
      }
      if (attempted && !needs_failover(response.status)) break;
      if (!retry.can_retry()) break;
      retry.sleep();
    }
    if (needs_failover(response.status)) {
      // Replica-local SHUTDOWN must not leak to the client as "server is
      // stopping" — the tier is alive, this request just lost the race.
      response.status = serve::Status::kUnavailable;
      response.tags.clear();
      response.error = "no replica could answer (down or draining); retry";
    }
  }

  if (response.status == serve::Status::kDeadlineExceeded)
    tenant->metrics.deadline_drops.inc();
  if (config_.cache_enabled && response.ok() && !response.degraded)
    cache_.put(cache_key(base_key, fingerprint), response.tags, fingerprint);
  return response;
}

obs::RegistrySnapshot Router::observability_snapshot() const {
  obs::RegistrySnapshot out;
  out.append(registry_.snapshot());  // router.* + cache.* + tenant.*
  std::size_t open_breakers = 0;
  for (const auto& tenant : models_.list()) {
    for (std::size_t i = 0; i < tenant->replicas.size(); ++i)
      out.append(tenant->replicas[i]->metrics_snapshot(),
                 tenant->metric_prefix + std::to_string(i) + ".");
    open_breakers += tenant->breakers.open_count();
  }
  // One gauge over every tenant's breakers, read at scrape time (each
  // supervisor setting it after its own sweep would be last-writer-wins).
  if (config_.health.probe_interval.count() > 0)
    out.gauges.push_back({"router.health.open_breakers", {},
                          static_cast<double>(open_breakers)});
  out.append(obs::Registry::global().snapshot());
  for (const auto& [name, stats] : util::FaultInjector::instance().all_stats()) {
    out.counters.push_back({"fault." + name + ".calls", {}, stats.calls});
    out.counters.push_back({"fault." + name + ".fires", {}, stats.fires});
  }
  return out;
}

std::string Router::admin(const std::string& command) {
  std::istringstream in(command);
  std::string verb;
  in >> verb;
  // The replica lifecycle verbs address the default tenant's pool.
  const std::shared_ptr<Tenant> tenant = models_.default_tenant();
  auto& pool = tenant->replicas;

  if (verb == "status") {
    std::ostringstream out;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const obs::RegistrySnapshot snapshot = pool[i]->metrics_snapshot();
      out << i << '\t' << (pool[i]->healthy() ? "healthy" : "down")
          << "\tfingerprint=" << fingerprint_hex(pool[i]->fingerprint())
          << "\tsubmitted=" << snapshot.counter_value("submitted")
          << "\tcompleted=" << snapshot.counter_value("completed")
          << "\tbreaker=" << (tenant->breakers.is_open(i) ? "open" : "closed")
          << '\n';
    }
    out << "cache\t" << (config_.cache_enabled ? "on" : "off") << "\tentries="
        << cache_.size() << "\tbytes=" << cache_.bytes() << '\n';
    return out.str();
  }

  std::size_t index = 0;
  if (verb == "kill" || verb == "revive" || verb == "swap") {
    if (!(in >> index) || index >= pool.size())
      return "ERROR #REPLICA " + verb + " needs a replica index in [0, " +
             std::to_string(pool.size()) + ")\n";
  }

  if (verb == "kill") {
    pool[index]->kill();
    return "OK killed replica " + std::to_string(index) + "\n";
  }
  if (verb == "revive") {
    pool[index]->revive();
    return "OK revived replica " + std::to_string(index) + "\n";
  }
  if (verb == "swap") {
    std::string path;
    if (!(in >> path)) return "ERROR #REPLICA swap needs a model path\n";
    if (tenant->learn) return learning_tenant_refusal("swap", *tenant);
    std::shared_ptr<const core::GraphNerModel> model;
    try {
      model = std::make_shared<core::GraphNerModel>(
          core::GraphNerModel::load_auto_file(path));
    } catch (const std::exception& e) {
      return "ERROR swap failed: " + std::string(e.what()) + "\n";
    }
    // Same mutex as the pool-wide swaps: a concurrent swap-all must not
    // observe (or be observed by) a half-applied single-replica swap.
    std::lock_guard<std::mutex> lock(swap_mutex_);
    const std::uint64_t old_fingerprint = pool[index]->fingerprint();
    pool[index]->swap_model(model);
    swaps_.inc();
    // A cache generation nobody serves anymore can only produce stale
    // tags on a fingerprint collision after a swap-back; drop it. A
    // generation some *other* replica still runs stays valid.
    bool generation_live = false;
    for (const auto& replica : pool)
      if (replica->healthy() && replica->fingerprint() == old_fingerprint)
        generation_live = true;
    std::size_t invalidated = 0;
    if (!generation_live && old_fingerprint != model->fingerprint())
      invalidated = cache_.invalidate_fingerprint(old_fingerprint);
    return "OK swapped replica " + std::to_string(index) + " to " + path +
           " (fingerprint " + fingerprint_hex(model->fingerprint()) +
           ", invalidated " + std::to_string(invalidated) +
           " cache entries)\n";
  }

  if (verb == "model") return admin_model(in);
  if (verb == "quota") return admin_quota(in);
  if (verb == "learn") return admin_learn(in);

  return "ERROR unknown #REPLICA command \"" + verb +
         "\" (expected kill, revive, swap, status, model, quota or learn)\n";
}

std::string Router::admin_model(std::istringstream& in) {
  std::string sub;
  in >> sub;

  if (sub == "list") {
    std::ostringstream out;
    for (const auto& tenant : models_.list()) {
      std::size_t healthy = 0;
      for (const auto& replica : tenant->replicas)
        if (replica->healthy()) ++healthy;
      out << tenant->name << '\t'
          << (tenant->name == ModelRegistry::kDefault ? "default" : "added")
          << "\treplicas=" << healthy << '/' << tenant->replicas.size()
          << "\tfingerprint="
          << fingerprint_hex(tenant->replicas[0]->fingerprint()) << "\tquota=";
      if (tenant->quota.limited()) {
        const auto [rate, burst] = tenant->quota.shape();
        out << rate << '/' << burst;
      } else {
        out << "off";
      }
      out << "\trequests=" << tenant->metrics.requests.value() << '\n';
    }
    return out.str();
  }

  if (sub == "add" || sub == "swap") {
    std::string name, path;
    if (!(in >> name >> path))
      return "ERROR #REPLICA model " + sub + " needs <name> <model-path>\n";
    std::shared_ptr<Tenant> tenant;
    if (sub == "swap") {
      tenant = models_.resolve(name);
      if (!tenant)
        return "ERROR model \"" + name +
               "\" is not resident (use model add first)\n";
      if (tenant->learn) return learning_tenant_refusal("model swap", *tenant);
    }
    std::shared_ptr<const core::GraphNerModel> model;
    try {
      model = std::make_shared<core::GraphNerModel>(
          core::GraphNerModel::load_auto_file(path));
    } catch (const std::exception& e) {
      return "ERROR model " + sub + " failed: " + std::string(e.what()) + "\n";
    }

    if (sub == "add") {
      try {
        models_.add(name, model, config_.tenant_replicas);
      } catch (const std::exception& e) {
        return "ERROR model add failed: " + std::string(e.what()) + "\n";
      }
      return "OK model " + name + " resident (fingerprint " +
             fingerprint_hex(model->fingerprint()) + ", " +
             std::to_string(std::max<std::size_t>(1, config_.tenant_replicas)) +
             " replica(s))\n";
    }

    std::lock_guard<std::mutex> lock(swap_mutex_);
    const std::size_t invalidated = swap_pool(*tenant, model);
    return "OK swapped model " + tenant->name + " to " + path +
           " (fingerprint " + fingerprint_hex(model->fingerprint()) +
           ", invalidated " + std::to_string(invalidated) +
           " cache entries)\n";
  }

  if (sub == "drop") {
    std::string name;
    if (!(in >> name)) return "ERROR #REPLICA model drop needs <name>\n";
    std::shared_ptr<Tenant> tenant = models_.remove(name);
    if (!tenant)
      return "ERROR model \"" + name +
             "\" is not droppable (not resident, or the default model)\n";
    // New requests can no longer resolve the name; stop the supervisor,
    // drain the pool so every in-flight future settles, then drop the dead
    // generations' cache entries (tenant-scoped keys — no other tenant is
    // touched).
    std::lock_guard<std::mutex> lock(swap_mutex_);
    std::vector<std::uint64_t> fingerprints;
    for (const auto& replica : tenant->replicas)
      fingerprints.push_back(replica->fingerprint());
    tenant->stop();
    std::size_t invalidated = 0;
    for (const std::uint64_t fp : fingerprints)
      invalidated += cache_.invalidate_fingerprint(fp);
    return "OK dropped model " + name + " (invalidated " +
           std::to_string(invalidated) + " cache entries)\n";
  }

  return "ERROR unknown #REPLICA model command \"" + sub +
         "\" (expected add, swap, drop or list)\n";
}

std::string Router::admin_quota(std::istringstream& in) {
  std::string name;
  if (!(in >> name))
    return "ERROR #REPLICA quota needs <model> <rate> <burst> | <model> off\n";
  std::shared_ptr<Tenant> tenant = models_.resolve(name);
  if (!tenant) return "ERROR model \"" + name + "\" is not resident\n";

  std::string rate_word;
  if (!(in >> rate_word))
    return "ERROR #REPLICA quota needs <rate> <burst> (tokens/s, tokens) or "
           "off\n";
  if (rate_word == "off") {
    tenant->quota.remove();
    return "OK quota off for " + tenant->name + "\n";
  }
  double rate = 0.0;
  double burst = 0.0;
  std::istringstream rate_in(rate_word);
  if (!(rate_in >> rate) || !(in >> burst) || rate < 0.0 || burst < 0.0)
    return "ERROR #REPLICA quota: rate and burst must be non-negative "
           "numbers\n";
  tenant->quota.configure(rate, burst);
  return "OK quota for " + tenant->name + ": rate " + rate_word + "/s, burst " +
         std::to_string(static_cast<std::uint64_t>(burst)) + "\n";
}

void Router::add_model(const std::string& name,
                       std::shared_ptr<const core::GraphNerModel> model) {
  models_.add(name, std::move(model), config_.tenant_replicas);
}

std::string Router::admin_learn(std::istringstream& in) {
  const std::shared_ptr<Tenant> tenant = models_.default_tenant();
  if (!tenant->learn)
    return "ERROR learning disabled (start the router with --learn)\n";
  LearnLog& log = *tenant->learn;
  std::deque<Generation>& generations = tenant->generations;
  std::string mode;
  in >> mode;

  if (mode == "status") {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    const core::OnlineLearner& learner = log.learner();
    std::ostringstream out;
    out << "learn\tvertices=" << learner.vertex_count()
        << "\tedges=" << learner.edge_count() << "\tbase_fingerprint="
        << fingerprint_hex(learner.base().fingerprint()) << '\n';
    out << "wal\t" << (log.durable() ? "on" : "off")
        << "\tseq=" << log.last_seq()
        << "\tbytes=" << log.wal_bytes()
        << "\trecords=" << log.wal_records()
        << "\tsnapshot_seq=" << log.snapshot_seq()
        << "\tsnapshot_fingerprint="
        << fingerprint_hex(log.snapshot_fingerprint())
        << "\tquarantined=" << log.quarantined_total() << '\n';
    out << "generation\tcurrent=" << generations.back().seq << ':'
        << fingerprint_hex(generations.back().model->fingerprint());
    if (generations.size() >= 2) {
      const Generation& previous = generations[generations.size() - 2];
      out << "\tprevious=" << previous.seq << ':'
          << fingerprint_hex(previous.model->fingerprint());
    } else {
      out << "\tprevious=none";
    }
    out << "\tretained=" << generations.size() << '\n';
    return out.str();
  }

  if (mode == "rollback") {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    if (generations.size() < 2)
      return "ERROR rollback: no previous generation retained\n";
    const Generation bad = generations.back();
    if (log.snapshot_seq() >= bad.seq)
      return "ERROR rollback: generation " + std::to_string(bad.seq) +
             " is already folded into the snapshot and cannot be rolled "
             "back\n";
    // Rollback = retroactive quarantine of the newest committed sequence:
    // journal it first (so a restart replays to the rolled-back state),
    // rebuild the learner without it, then swap the previous generation
    // back tier-wide through the usual cache-invalidation sweep.
    try {
      log.quarantine(bad.seq, "rollback");
    } catch (const std::exception& e) {
      return "ERROR rollback: could not journal the quarantine (" +
             std::string(e.what()) + "); nothing rolled back\n";
    }
    log.rebuild();
    generations.pop_back();
    const Generation& restored = generations.back();
    const std::size_t invalidated = swap_pool(*tenant, restored.model);
    return "OK rolled back: quarantined seq " + std::to_string(bad.seq) +
           ", restored generation " + std::to_string(restored.seq) +
           " (fingerprint " + fingerprint_hex(restored.model->fingerprint()) +
           ", invalidated " + std::to_string(invalidated) +
           " cache entries)\n";
  }

  std::vector<text::Sentence> batch;
  if (mode == "text") {
    text::Sentence sentence;
    std::string token;
    while (in >> token) sentence.tokens.push_back(std::move(token));
    if (sentence.size() == 0) return "ERROR learn text needs tokens\n";
    batch.push_back(std::move(sentence));
  } else if (mode == "file") {
    std::string path;
    if (!(in >> path)) return "ERROR learn file needs a path\n";
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file) return "ERROR learn file: cannot open " + path + "\n";
    const auto size = static_cast<std::uint64_t>(file.tellg());
    if (size > config_.learn_max_file_bytes)
      return "ERROR learn file: " + path + " is " + std::to_string(size) +
             " bytes, over the " +
             std::to_string(config_.learn_max_file_bytes) +
             "-byte ingestion cap\n";
    file.seekg(0);
    std::string line;
    while (std::getline(file, line)) {
      text::Sentence sentence;
      std::istringstream tokens(line);
      std::string token;
      while (tokens >> token) sentence.tokens.push_back(std::move(token));
      if (sentence.size() > 0) batch.push_back(std::move(sentence));
    }
    if (batch.empty()) return "ERROR learn file: no sentences in " + path + "\n";
  } else {
    return "ERROR unknown learn mode \"" + mode +
           "\" (expected text, file, status or rollback)\n";
  }

  // Learn, gate, journal, then hot-swap the fork into the whole pool —
  // atomically with respect to other learns (submits keep flowing — each
  // replica swap is itself atomic and the cache is generation-keyed).
  // Order matters: the batch is only *committed* (WAL record appended)
  // after the canary gate passed, so a crash anywhere before the append
  // leaves no trace of the batch, and a crash after it replays the batch.
  std::lock_guard<std::mutex> lock(swap_mutex_);
  core::LearnStats stats;
  std::shared_ptr<const core::GraphNerModel> fork;
  try {
    stats = log.learner().learn(batch);
    fork = log.learner().snapshot_model();
  } catch (const std::exception& e) {
    log.rebuild();  // the learner may be half-mutated
    return "ERROR learn failed: " + std::string(e.what()) + "\n";
  }

  if (!config_.canary.empty()) {
    const double disagreement = canary_disagreement(*tenant->model, *fork);
    registry_.counter("learn.canary.checks").inc();
    registry_.gauge("learn.canary.disagreement").set(disagreement);
    if (disagreement > config_.canary_max_disagreement) {
      registry_.counter("learn.canary.quarantined").inc();
      const std::uint64_t seq = log.last_seq() + 1;
      std::string note;
      try {
        log.quarantine(seq, "canary disagreement " +
                                        std::to_string(disagreement));
      } catch (const std::exception& e) {
        // The batch was never committed, so replay is correct either way;
        // only the quarantine bookkeeping is lost.
        note = " (quarantine not journaled: " + std::string(e.what()) + ")";
      }
      log.rebuild();
      std::ostringstream out;
      out << "ERROR learn rejected by canary gate: disagreement "
          << disagreement << " > " << config_.canary_max_disagreement
          << "; batch quarantined as seq " << seq << note
          << ", no replica swapped\n";
      return out.str();
    }
  }

  std::uint64_t seq = 0;
  try {
    seq = log.commit(batch);
  } catch (const std::exception& e) {
    // The record is not durable — the learner must not keep state a
    // restart would lose. Rebuild back to the journaled prefix; nothing
    // swaps.
    log.rebuild();
    return "ERROR learn commit failed (" + std::string(e.what()) +
           "); learned state rolled back, no replica swapped\n";
  }

  const std::size_t invalidated = swap_pool(*tenant, fork);
  generations.push_back({seq, fork});
  const std::size_t keep = std::max<std::size_t>(2, config_.learn_generations);
  while (generations.size() > keep) generations.pop_front();

  std::ostringstream out;
  out << "OK learned " << batch.size() << " sentence(s): +"
      << stats.appended_vertices << " vertices ("
      << log.learner().vertex_count() << " total), "
      << stats.patched_vertices << " patched, " << stats.perturbed_vertices
      << " perturbed, " << stats.relaxations << " relaxations, residual "
      << stats.final_residual << (stats.converged ? "" : " (not converged)")
      << ", seq " << seq << ", fingerprint "
      << fingerprint_hex(fork->fingerprint()) << ", invalidated "
      << invalidated << " cache entries\n";
  return out.str();
}

double Router::canary_disagreement(const core::GraphNerModel& current,
                                   const core::GraphNerModel& fork) {
  crf::LinearChainCrf::Scratch scratch;
  features::EncodeScratch encode;
  std::size_t differing = 0;
  for (const text::Sentence& sentence : config_.canary) {
    // The blended decode is the tier the learned table feeds (plain
    // Viterbi never consults it), so it is the decode the gate must watch.
    const std::vector<text::Tag> before =
        current.decode_one_blended(sentence, scratch, encode);
    const std::vector<text::Tag> after =
        fork.decode_one_blended(sentence, scratch, encode);
    if (before != after) ++differing;
  }
  return static_cast<double>(differing) /
         static_cast<double>(config_.canary.size());
}

std::size_t Router::swap_pool(
    Tenant& tenant, std::shared_ptr<const core::GraphNerModel> model) {
  std::vector<std::uint64_t> old_fingerprints;
  old_fingerprints.reserve(tenant.replicas.size());
  for (const auto& replica : tenant.replicas)
    old_fingerprints.push_back(replica->fingerprint());
  for (auto& replica : tenant.replicas) {
    replica->swap_model(model);
    swaps_.inc();
  }
  // Every generation that was serving before the sweep and is not the new
  // one is now orphaned (same rule as single-replica swap, applied after
  // all replicas moved).
  std::sort(old_fingerprints.begin(), old_fingerprints.end());
  old_fingerprints.erase(
      std::unique(old_fingerprints.begin(), old_fingerprints.end()),
      old_fingerprints.end());
  std::size_t invalidated = 0;
  for (const std::uint64_t old : old_fingerprints)
    if (old != model->fingerprint())
      invalidated += cache_.invalidate_fingerprint(old);
  tenant.model = std::move(model);
  return invalidated;
}

}  // namespace graphner::router
