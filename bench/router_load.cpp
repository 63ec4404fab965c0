// Closed-loop load generator for the sharded multi-replica router tier.
//
// Trains a toy model, then sweeps cache {off, on} x replicas {1, 2, 4}
// under a skewed workload (most requests drawn from a small hot set — the
// boilerplate-heavy shape real tagging streams have, and the premise the
// corpus-level GraphNER method itself is built on). Each cell drives the
// Router with C concurrent closed-loop clients and reports sentences/sec,
// client-observed latency quantiles, and the cross-request cache hit
// fraction taken from the router's own metrics registry.
//
// Two acceptance checks are evaluated and written to BENCH_router.json:
//
//   cache_speedup_r4   — cache-on vs cache-off throughput at 4 replicas
//                        on the skewed workload (ISSUE 7 asks >= 1.5x)
//   byte_identical     — every distinct pool sentence routed through the
//                        tier decodes to exactly the response line the
//                        offline decode API prints (online == offline
//                        through the router, not just through one service)
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/router/router.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;

constexpr std::size_t kHotSetSize = 16;
constexpr unsigned kHotPercent = 90;

struct LevelResult {
  bool cache = false;
  std::size_t replicas = 0;
  std::size_t concurrency = 0;
  std::size_t requests = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double hit_fraction = 0.0;
  std::uint64_t failovers = 0;

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

/// Deterministic per-client request stream (xorshift64*), skewed: most
/// draws land in the hot set.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t pool)
      : state_(seed * 2654435761ULL + 0x9E3779B97F4A7C15ULL), pool_(pool) {}

  [[nodiscard]] std::size_t next() noexcept {
    if (next_raw() % 100 < kHotPercent)
      return next_raw() % std::min(kHotSetSize, pool_);
    return next_raw() % pool_;
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

LevelResult run_level(std::shared_ptr<const core::GraphNerModel> model,
                      const std::vector<text::Sentence>& sentences, bool cache,
                      std::size_t replicas, std::size_t concurrency,
                      std::size_t requests_per_client) {
  router::RouterConfig config;
  config.replicas = replicas;
  config.cache_enabled = cache;
  router::Router tier(std::move(model), config);

  std::vector<std::vector<double>> latencies(concurrency);
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  util::Stopwatch wall;
  for (std::size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      RequestStream stream(c + 1, sentences.size());
      latencies[c].reserve(requests_per_client);
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        const auto& sentence = sentences[stream.next()];
        util::Stopwatch watch;
        if (tier.submit(sentence).get().ok())
          latencies[c].push_back(watch.seconds() * 1e6);
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = wall.seconds();
  const auto snapshot = tier.observability_snapshot();
  tier.stop();

  std::vector<double> merged;
  for (auto& per_client : latencies)
    merged.insert(merged.end(), per_client.begin(), per_client.end());

  LevelResult result;
  result.cache = cache;
  result.replicas = replicas;
  result.concurrency = concurrency;
  result.requests = merged.size();
  result.seconds = seconds;
  result.p50_ms = quantile_ms(merged, 0.50);
  result.p95_ms = quantile_ms(merged, 0.95);
  result.p99_ms = quantile_ms(merged, 0.99);
  const auto requests = snapshot.counter_value("router.requests");
  result.hit_fraction =
      requests > 0 ? static_cast<double>(snapshot.counter_value("cache.hits")) /
                         static_cast<double>(requests)
                   : 0.0;
  result.failovers = snapshot.counter_value("router.failovers");
  return result;
}

/// Route every distinct pool sentence through a fresh cache-on tier and
/// compare the formatted response line against the offline decode API.
[[nodiscard]] bool byte_identity(
    std::shared_ptr<const core::GraphNerModel> model,
    const std::vector<text::Sentence>& sentences) {
  const auto offline_tags = model->decode_crf(sentences);
  router::RouterConfig config;
  config.replicas = 4;
  router::Router tier(std::move(model), config);
  bool identical = true;
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    serve::Request request;
    request.id = sentences[i].id;
    serve::TagResponse offline;
    offline.tags = offline_tags[i];
    serve::TagResponse online = tier.submit(sentences[i]).get();
    online.coalesced = false;  // routing detail, not part of the tag payload
    if (serve::format_response(request, online) !=
        serve::format_response(request, offline)) {
      std::cerr << "byte identity violated for " << sentences[i].id << '\n';
      identical = false;
    }
  }
  tier.stop();
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("router_load", "closed-loop load test of the router tier");
  auto scale = cli.flag<double>("scale", 0.1, "corpus scale for the toy model");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto requests = cli.flag<std::size_t>("requests", 200, "requests per client");
  auto concurrency = cli.flag<std::size_t>("clients", 16, "closed-loop clients");
  auto json_out = cli.flag<std::string>("json", "BENCH_router.json", "output file");
  cli.parse(argc, argv);

  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(*scale, *seed));
  auto model = std::make_shared<const core::GraphNerModel>(
      core::GraphNerModel::train(data.train, {},
                                 bench::bc2gm_config(core::CrfProfile::kBanner)));

  std::vector<text::Sentence> sentences;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    serve::normalize_tokens(stripped.tokens);  // what protocol ingestion does
    sentences.push_back(std::move(stripped));
  }

  std::vector<LevelResult> results;
  util::TablePrinter table({"cache", "replicas", "clients", "sents/s", "p50 ms",
                            "p95 ms", "p99 ms", "hit frac"});
  for (const bool cache : {false, true}) {
    for (const std::size_t replicas : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
      const auto result = run_level(model, sentences, cache, replicas,
                                    *concurrency, *requests);
      table.add_row({result.cache ? "on" : "off",
                     std::to_string(result.replicas),
                     std::to_string(result.concurrency),
                     util::TablePrinter::fmt(result.throughput()),
                     util::TablePrinter::fmt(result.p50_ms),
                     util::TablePrinter::fmt(result.p95_ms),
                     util::TablePrinter::fmt(result.p99_ms),
                     util::TablePrinter::fmt(result.hit_fraction)});
      results.push_back(result);
    }
  }
  table.print(std::cout,
              "router_load (closed loop, " + std::to_string(*requests) +
                  " requests/client, skewed: " + std::to_string(kHotPercent) +
                  "% of traffic from " + std::to_string(kHotSetSize) +
                  " sentences)");

  auto cell = [&](bool cache, std::size_t replicas) {
    for (const auto& r : results)
      if (r.cache == cache && r.replicas == replicas) return r.throughput();
    return 0.0;
  };
  const double off_r4 = cell(false, 4);
  const double speedup_r4 = off_r4 > 0.0 ? cell(true, 4) / off_r4 : 0.0;
  std::cout << "cache on vs off at 4 replicas (skewed): " << speedup_r4
            << "x\n";

  const bool identical = byte_identity(model, sentences);
  std::cout << "online-through-router vs offline decode: "
            << (identical ? "byte-identical" : "DIVERGED") << '\n';

  std::ofstream json(*json_out);
  json << "{\n  \"hot_set_size\": " << kHotSetSize
       << ",\n  \"hot_traffic_percent\": " << kHotPercent
       << ",\n  \"clients\": " << *concurrency << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"cache\": " << (r.cache ? "true" : "false")
         << ", \"replicas\": " << r.replicas
         << ", \"concurrency\": " << r.concurrency
         << ", \"requests\": " << r.requests
         << ", \"throughput_sps\": " << r.throughput()
         << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
         << ", \"p99_ms\": " << r.p99_ms
         << ", \"cache_hit_fraction\": " << r.hit_fraction
         << ", \"failovers\": " << r.failovers << "}"
         << (i + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"cache_speedup_r4\": " << speedup_r4
       << ",\n  \"byte_identical\": " << (identical ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote " << *json_out << '\n';
  return identical ? 0 : 1;
}
