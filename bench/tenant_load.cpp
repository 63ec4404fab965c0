// Mixed-tenant load harness for the multi-model router tier.
//
// Two models stay resident in one Router: the default gene-mention model
// (3-label BIO) and an added "jnlpba" tenant (5 entity types, 11 labels,
// gazetteer features). Both tenants are driven with the SAME sentence
// pool — identical sentence keys — which is exactly the situation where a
// cache that forgot to scope its key by tenant would serve one tenant's
// tags to the other.
//
// Three phases, all written to BENCH_tenant.json:
//
//   cross_tenant_cache_hits — each distinct pool sentence is submitted
//       exactly once per tenant, serially, on a cold cache. Any cache hit
//       at all can only come from the other tenant's entry, so the
//       acceptance bar is literally zero.
//   mixed skewed workload   — C closed-loop clients, 90% of traffic from a
//       16-sentence hot set, ~70/30 split between the tenants. Per-tenant
//       throughput, latency quantiles, hit fraction, and the per-tenant
//       conservation law requests == cache_hits + cache_misses.
//   byte_identical_*        — on the warm post-load router, every distinct
//       pool sentence through each tenant must format to exactly the line
//       that tenant's model prints offline (cached entries included — a
//       poisoned cache fails here even if the counters look clean).
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/corpus/jnlpba.hpp"
#include "src/router/router.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;

constexpr std::size_t kHotSetSize = 16;
constexpr unsigned kHotPercent = 90;
constexpr unsigned kDefaultTenantPercent = 70;

struct TenantResult {
  std::string name;
  std::size_t requests = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double hit_fraction = 0.0;
  bool conservation_ok = false;
  bool byte_identical = false;

  [[nodiscard]] double throughput() const noexcept {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

[[nodiscard]] double quantile_ms(std::vector<double>& latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_us.size() - 1) + 0.5);
  return latencies_us[std::min(rank, latencies_us.size() - 1)] / 1000.0;
}

/// Deterministic per-client stream (xorshift64*) yielding a skewed
/// (sentence, tenant) pair per request.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t pool)
      : state_(seed * 2654435761ULL + 0x9E3779B97F4A7C15ULL), pool_(pool) {}

  [[nodiscard]] std::size_t next_sentence() noexcept {
    if (next_raw() % 100 < kHotPercent)
      return next_raw() % std::min(kHotSetSize, pool_);
    return next_raw() % pool_;
  }

  [[nodiscard]] bool next_is_default() noexcept {
    return next_raw() % 100 < kDefaultTenantPercent;
  }

 private:
  [[nodiscard]] std::uint64_t next_raw() noexcept {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

  std::uint64_t state_;
  std::size_t pool_;
};

[[nodiscard]] serve::SubmitOptions for_model(const std::string& name) {
  serve::SubmitOptions options;
  options.model = name;
  return options;
}

/// Submit every pool sentence once through `model_name` on the (possibly
/// warm) tier and diff the formatted line against that tenant's offline
/// decode.
[[nodiscard]] bool byte_identity(router::Router& tier,
                                 const core::GraphNerModel& model,
                                 const std::string& model_name,
                                 const std::vector<text::Sentence>& sentences) {
  const auto offline_tags = model.decode_crf(sentences);
  bool identical = true;
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    serve::Request request;
    request.id = sentences[i].id;
    serve::TagResponse offline;
    offline.tags = offline_tags[i];
    offline.labels = std::make_shared<const text::LabelSet>(model.labels());
    serve::TagResponse online =
        tier.submit(sentences[i], for_model(model_name)).get();
    online.coalesced = false;  // routing detail, not part of the tag payload
    if (serve::format_response(request, online) !=
        serve::format_response(request, offline)) {
      std::cerr << "byte identity violated for tenant \"" << model_name
                << "\" on " << sentences[i].id << '\n';
      identical = false;
    }
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("tenant_load", "mixed-tenant load test of the router tier");
  auto scale = cli.flag<double>("scale", 0.1, "corpus scale for both models");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto requests = cli.flag<std::size_t>("requests", 200, "requests per client");
  auto concurrency = cli.flag<std::size_t>("clients", 8, "closed-loop clients");
  auto json_out = cli.flag<std::string>("json", "BENCH_tenant.json", "output file");
  cli.parse(argc, argv);

  // Default tenant: the usual gene-mention model. Added tenant: a 5-entity
  // JNLPBA-profile model with gazetteer features — a different label
  // inventory, so a cross-tenant cache hit is visible in the payload, not
  // just in the counters.
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(*scale, *seed));
  auto gene_model = std::make_shared<const core::GraphNerModel>(
      core::GraphNerModel::train(data.train, {},
                                 bench::bc2gm_config(core::CrfProfile::kBanner)));
  const auto bio_data =
      corpus::generate_jnlpba_corpus(corpus::jnlpba_like_spec(*scale, *seed + 1));
  auto bio_config = bench::bc2gm_config(core::CrfProfile::kBanner);
  bio_config.labels = corpus::jnlpba_label_set();
  bio_config.gazetteer_features = true;
  auto bio_model = std::make_shared<const core::GraphNerModel>(
      core::GraphNerModel::train(bio_data.train, {}, bio_config));

  // One shared pool, identical sentence keys for both tenants. The test
  // split repeats some sentences (recurring text is the corpus-level
  // signal GraphNER exploits); the pool keeps each key once, so a
  // same-tenant repeat can never pass for a cross-tenant hit in phase 1.
  std::vector<text::Sentence> sentences;
  std::unordered_set<std::string> keys;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    serve::normalize_tokens(stripped.tokens);  // what protocol ingestion does
    if (keys.insert(serve::sentence_key(stripped.tokens)).second)
      sentences.push_back(std::move(stripped));
  }

  router::RouterConfig config;
  config.replicas = 2;
  config.tenant_replicas = 2;
  router::Router tier(gene_model, config);
  tier.add_model("jnlpba", bio_model);

  // ---- Phase 1: cold-cache isolation probe ------------------------------
  // Serial, one submit per (sentence, tenant): with tenant-scoped cache
  // keys every request is a miss, so any hit is a cross-tenant hit.
  for (const auto& sentence : sentences) {
    (void)tier.submit(sentence, serve::SubmitOptions{}).get();
    (void)tier.submit(sentence, for_model("jnlpba")).get();
  }
  const auto cold = tier.observability_snapshot();
  const std::uint64_t cross_tenant_hits =
      cold.counter_value("tenant.default.cache_hits") +
      cold.counter_value("tenant.jnlpba.cache_hits");
  std::cout << "cold-cache probe: " << sentences.size()
            << " shared sentence keys x 2 tenants, cross-tenant cache hits: "
            << cross_tenant_hits << '\n';

  // ---- Phase 2: mixed skewed concurrent workload ------------------------
  const auto before = tier.observability_snapshot();
  std::vector<std::vector<double>> default_lat(*concurrency);
  std::vector<std::vector<double>> jnlpba_lat(*concurrency);
  std::vector<std::thread> clients;
  clients.reserve(*concurrency);
  util::Stopwatch wall;
  for (std::size_t c = 0; c < *concurrency; ++c) {
    clients.emplace_back([&, c] {
      RequestStream stream(c + 1, sentences.size());
      for (std::size_t r = 0; r < *requests; ++r) {
        const auto& sentence = sentences[stream.next_sentence()];
        const bool is_default = stream.next_is_default();
        util::Stopwatch watch;
        auto response =
            tier.submit(sentence, is_default ? serve::SubmitOptions{}
                                             : for_model("jnlpba"))
                .get();
        if (response.ok())
          (is_default ? default_lat : jnlpba_lat)[c].push_back(watch.seconds() *
                                                               1e6);
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = wall.seconds();
  const auto after = tier.observability_snapshot();

  auto delta = [&](const std::string& name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  auto summarize = [&](const std::string& name,
                       std::vector<std::vector<double>>& per_client) {
    TenantResult result;
    result.name = name;
    std::vector<double> merged;
    for (auto& lat : per_client)
      merged.insert(merged.end(), lat.begin(), lat.end());
    result.requests = merged.size();
    result.seconds = seconds;
    result.p50_ms = quantile_ms(merged, 0.50);
    result.p95_ms = quantile_ms(merged, 0.95);
    result.p99_ms = quantile_ms(merged, 0.99);
    const auto tenant_requests = delta("tenant." + name + ".requests");
    const auto hits = delta("tenant." + name + ".cache_hits");
    result.hit_fraction = tenant_requests > 0
                              ? static_cast<double>(hits) /
                                    static_cast<double>(tenant_requests)
                              : 0.0;
    result.conservation_ok =
        tenant_requests == hits + delta("tenant." + name + ".cache_misses");
    return result;
  };
  TenantResult default_result = summarize("default", default_lat);
  TenantResult jnlpba_result = summarize("jnlpba", jnlpba_lat);

  // ---- Phase 3: byte identity on the warm router -------------------------
  default_result.byte_identical =
      byte_identity(tier, *gene_model, "", sentences);
  jnlpba_result.byte_identical =
      byte_identity(tier, *bio_model, "jnlpba", sentences);
  tier.stop();

  util::TablePrinter table({"tenant", "labels", "requests", "sents/s", "p50 ms",
                            "p95 ms", "p99 ms", "hit frac", "laws", "bytes"});
  const TenantResult* rows[] = {&default_result, &jnlpba_result};
  const std::size_t label_counts[] = {gene_model->labels().num_labels(),
                                      bio_model->labels().num_labels()};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& r = *rows[i];
    table.add_row({r.name.empty() ? "default" : r.name,
                   std::to_string(label_counts[i]), std::to_string(r.requests),
                   util::TablePrinter::fmt(r.throughput()),
                   util::TablePrinter::fmt(r.p50_ms),
                   util::TablePrinter::fmt(r.p95_ms),
                   util::TablePrinter::fmt(r.p99_ms),
                   util::TablePrinter::fmt(r.hit_fraction),
                   r.conservation_ok ? "ok" : "VIOLATED",
                   r.byte_identical ? "ok" : "DIVERGED"});
  }
  table.print(std::cout,
              "tenant_load (mixed " + std::to_string(kDefaultTenantPercent) +
                  "/" + std::to_string(100 - kDefaultTenantPercent) +
                  " split, skewed: " + std::to_string(kHotPercent) +
                  "% of traffic from " + std::to_string(kHotSetSize) +
                  " sentences)");

  const bool pass = cross_tenant_hits == 0 && default_result.conservation_ok &&
                    jnlpba_result.conservation_ok &&
                    default_result.byte_identical &&
                    jnlpba_result.byte_identical;

  std::ofstream json(*json_out);
  json << "{\n  \"hot_set_size\": " << kHotSetSize
       << ",\n  \"hot_traffic_percent\": " << kHotPercent
       << ",\n  \"default_tenant_percent\": " << kDefaultTenantPercent
       << ",\n  \"clients\": " << *concurrency
       << ",\n  \"shared_pool_sentences\": " << sentences.size()
       << ",\n  \"cross_tenant_cache_hits\": " << cross_tenant_hits
       << ",\n  \"tenants\": [\n";
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& r = *rows[i];
    json << "    {\"name\": \"" << (r.name.empty() ? "default" : r.name)
         << "\", \"labels\": " << label_counts[i]
         << ", \"requests\": " << r.requests
         << ", \"throughput_sps\": " << r.throughput()
         << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
         << ", \"p99_ms\": " << r.p99_ms
         << ", \"cache_hit_fraction\": " << r.hit_fraction
         << ", \"conservation_ok\": " << (r.conservation_ok ? "true" : "false")
         << ", \"byte_identical\": " << (r.byte_identical ? "true" : "false")
         << "}" << (i == 0 ? "," : "") << '\n';
  }
  json << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << *json_out << '\n';
  return pass ? 0 : 1;
}
