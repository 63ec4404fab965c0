// Closed-loop load generator for the serving runtime.
//
// Trains a toy model, starts an in-process TaggingService, and drives it
// with C concurrent closed-loop clients (each waits for its response
// before sending the next request). Two service shapes are compared at
// every concurrency level:
//
//   serial  — single-request-at-a-time: an admission lock keeps exactly
//             one request in flight end to end, which is what calling the
//             offline decode API from a request handler amounts to
//   batched — the worker pool + dynamic micro-batching service
//
// ...under two traffic shapes:
//
//   uniform — every request strides through the test pool (unique-heavy)
//   hot     — 95% of requests drawn from a 4-sentence hot set, the rest
//             uniform: the boilerplate-heavy, corpus-shaped traffic real
//             tagging streams produce (recurring surface forms are the
//             premise GraphNER itself is built on). Micro-batches coalesce
//             duplicate sentences into one decode; a serial server never
//             holds two identical requests at once, so it cannot.
//
// Reports sentences/sec and p50/p95/p99 client-observed latency per
// (mode, workload, concurrency), demonstrates the bounded queue's
// structured overload rejection, and writes everything to
// BENCH_serve.json so later PRs can track the serving trajectory next to
// the kernel benchmarks. On multicore hosts the uniform workload also
// clears 2x via worker parallelism; on a single-core host the hot
// workload is the demonstration that batching pays.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/serve/service.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;

constexpr std::size_t kHotSetSize = 4;
constexpr unsigned kHotPercent = 95;

struct LevelResult {
  std::string mode;
  std::string workload;
  std::size_t concurrency = 0;
  std::size_t requests = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
  double coalesced_fraction = 0.0;

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

/// Deterministic per-client request stream (xorshift64*).
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t pool, bool hot)
      : state_(seed * 2654435761ULL + 0x9E3779B97F4A7C15ULL),
        pool_(pool),
        hot_(hot) {}

  [[nodiscard]] std::size_t next() noexcept {
    if (hot_ && next_raw() % 100 < kHotPercent)
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
  bool hot_;
};

LevelResult run_level(const core::GraphNerModel& model,
                      const std::vector<text::Sentence>& sentences,
                      const std::string& mode, const std::string& workload,
                      std::size_t concurrency,
                      std::size_t requests_per_client) {
  const bool serial = mode == "serial";
  serve::ServiceConfig config;
  if (serial) {
    config.workers = 1;
    config.batching.max_batch = 1;
  } else {
    config.workers = 0;  // hardware concurrency
    config.batching.max_batch = 16;
  }
  serve::TaggingService service(model, config);
  std::mutex admission;  // serial mode: one request in flight, end to end

  const bool hot = workload == "hot";
  std::vector<std::vector<double>> latencies(concurrency);
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  std::atomic<std::uint64_t> coalesced{0};
  util::Stopwatch wall;
  for (std::size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      RequestStream stream(c + 1, sentences.size(), hot);
      latencies[c].reserve(requests_per_client);
      std::uint64_t local_coalesced = 0;
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        const auto& sentence = sentences[stream.next()];
        util::Stopwatch watch;
        serve::TagResponse response;
        if (serial) {
          std::lock_guard<std::mutex> lock(admission);
          response = service.tag(sentence);
        } else {
          response = service.tag(sentence);
        }
        if (response.ok()) {
          latencies[c].push_back(watch.seconds() * 1e6);
          if (response.coalesced) ++local_coalesced;
        }
      }
      coalesced.fetch_add(local_coalesced, std::memory_order_relaxed);
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = wall.seconds();
  const auto snapshot = service.metrics();
  service.stop();

  std::vector<double> merged;
  for (auto& per_client : latencies)
    merged.insert(merged.end(), per_client.begin(), per_client.end());

  LevelResult result;
  result.mode = mode;
  result.workload = workload;
  result.concurrency = concurrency;
  result.requests = merged.size();
  result.seconds = seconds;
  result.p50_ms = quantile_ms(merged, 0.50);
  result.p95_ms = quantile_ms(merged, 0.95);
  result.p99_ms = quantile_ms(merged, 0.99);
  result.mean_batch = snapshot.histogram("batch_size").mean();
  result.coalesced_fraction =
      merged.empty() ? 0.0
                     : static_cast<double>(coalesced.load()) /
                           static_cast<double>(merged.size());
  return result;
}

/// Flood a tiny bounded queue and count structured rejections: the
/// acceptance criterion is "reject, don't block".
[[nodiscard]] std::size_t overload_rejections(
    const core::GraphNerModel& model,
    const std::vector<text::Sentence>& sentences) {
  serve::ServiceConfig config;
  config.workers = 1;
  config.batching.max_batch = 1;
  config.batching.max_queue_depth = 8;
  serve::TaggingService service(model, config);
  std::vector<std::future<serve::TagResponse>> futures;
  futures.reserve(512);
  for (std::size_t i = 0; i < 512; ++i)
    futures.push_back(service.submit(sentences[i % sentences.size()]));
  std::size_t rejected = 0;
  for (auto& future : futures)
    if (future.get().status == serve::Status::kOverloaded) ++rejected;
  return rejected;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("serve_load", "closed-loop load test of the tagging service");
  auto scale = cli.flag<double>("scale", 0.1, "corpus scale for the toy model");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto requests = cli.flag<std::size_t>("requests", 200, "requests per client");
  auto json_out = cli.flag<std::string>("json", "BENCH_serve.json", "output file");
  cli.parse(argc, argv);

  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(*scale, *seed));
  const auto model = core::GraphNerModel::train(
      data.train, {}, bench::bc2gm_config(core::CrfProfile::kBanner));

  std::vector<text::Sentence> sentences;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    sentences.push_back(std::move(stripped));
  }

  const std::vector<std::size_t> levels = {1, 4, 16};
  std::vector<LevelResult> results;
  util::TablePrinter table({"mode", "workload", "clients", "sents/s", "p50 ms",
                            "p95 ms", "p99 ms", "mean batch", "coalesced"});
  for (const auto& workload : {std::string("uniform"), std::string("hot")}) {
    for (const auto& mode : {std::string("serial"), std::string("batched")}) {
      for (const std::size_t level : levels) {
        const auto result =
            run_level(model, sentences, mode, workload, level, *requests);
        table.add_row({result.mode, result.workload,
                       std::to_string(result.concurrency),
                       util::TablePrinter::fmt(result.throughput()),
                       util::TablePrinter::fmt(result.p50_ms),
                       util::TablePrinter::fmt(result.p95_ms),
                       util::TablePrinter::fmt(result.p99_ms),
                       util::TablePrinter::fmt(result.mean_batch),
                       util::TablePrinter::fmt(result.coalesced_fraction)});
        results.push_back(result);
      }
    }
  }
  table.print(std::cout, "serve_load (closed loop, " + std::to_string(*requests) +
                             " requests/client, hot = " +
                             std::to_string(kHotPercent) + "% of traffic from " +
                             std::to_string(kHotSetSize) + " sentences)");

  auto c16 = [&](const std::string& mode, const std::string& workload) {
    for (const auto& r : results)
      if (r.concurrency == 16 && r.mode == mode && r.workload == workload)
        return r.throughput();
    return 0.0;
  };
  const double serial_uniform = c16("serial", "uniform");
  const double serial_hot = c16("serial", "hot");
  const double speedup_uniform =
      serial_uniform > 0.0 ? c16("batched", "uniform") / serial_uniform : 0.0;
  const double speedup_hot =
      serial_hot > 0.0 ? c16("batched", "hot") / serial_hot : 0.0;
  std::cout << "batched vs single-request-at-a-time at 16 clients: "
            << speedup_uniform << "x uniform, " << speedup_hot
            << "x hot traffic\n";

  const std::size_t rejected = overload_rejections(model, sentences);
  std::cout << "overload flood (queue depth 8, 512 submits): " << rejected
            << " structured rejections\n";

  std::ofstream json(*json_out);
  json << "{\n  \"hot_set_size\": " << kHotSetSize
       << ",\n  \"hot_traffic_percent\": " << kHotPercent
       << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"workload\": \""
         << r.workload << "\", \"concurrency\": " << r.concurrency
         << ", \"requests\": " << r.requests
         << ", \"throughput_sps\": " << r.throughput()
         << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
         << ", \"p99_ms\": " << r.p99_ms << ", \"mean_batch\": " << r.mean_batch
         << ", \"coalesced_fraction\": " << r.coalesced_fraction << "}"
         << (i + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"batched_speedup_c16\": " << speedup_hot
       << ",\n  \"batched_speedup_c16_uniform\": " << speedup_uniform
       << ",\n  \"overload_rejections\": " << rejected << "\n}\n";
  std::cout << "wrote " << *json_out << '\n';
  return 0;
}
