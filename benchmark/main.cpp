// The GraphNER system benchmark: one workload per run.
//
//   graphner_bench --workload serve_unique --seed 1 --seconds 12 --trace 0
//
// Set-up runs the paper's offline pipeline on a fixed corpus, then starts
// the serving tier on the model it trained: train BANNER-ChemDNER on
// bc2gm_like_spec(2, 42) with 30k unlabelled sentences (seed 11) for Brown
// and word2vec, run the transductive GraphNER test on that corpus, and
// start a Router over the model. Set-up runs three times; the repeats must
// agree (identical model fingerprints and test tags). The model is the same
// for every --seed: the seed drives only the generated traffic (inputs.hpp).
//
// The router keeps its struct defaults except: 2 replicas of 2 decode
// workers each (4 decode threads), the GraphNER blended decode, and online
// learning with a WAL inside the build directory and a 64-sentence canary.
//
// Each workload then runs open-loop phases (traffic.hpp) after a warm-up
// that is not measured: lo = 3,000 req/s, hi = 6,000 req/s and a
// saturation phase with 256 requests in flight, each a third of --seconds.
// The rates stay well below what the tier sustains when other jobs share
// the machine, so a fixed-rate phase measures the tier, not a queue that a
// neighbour's load made grow.
//   serve_unique  uniform draws over 100,000 distinct sentences: decode and
//                 batching do the work, the router cache is bypassed.
//   serve_hot     Zipf(1.1) draws over 20,000 distinct sentences: the cache,
//                 protocol and submit path do the work.
//   serve_learn   serve_hot's reads, with a "#REPLICA learn file" batch of 8
//                 new sentences every 250 ms beside them; each learned
//                 generation invalidates cached tags.
// On every workload, 16 learn batches go back to back to each set-up's
// router but the last; serve_unique and serve_hot then send them to the
// router that served the reads, after the reads. learn.p50_ms keeps each
// batch's fastest time, so it is timed alike on every workload.
//
// With --trace 1 a sample of requests records per-stage times from this
// file's own calls into each layer, and single layers are probed after the
// traffic; the result line then carries the per-layer metrics.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/inputs.hpp"
#include "benchmark/probes.hpp"
#include "benchmark/report.hpp"
#include "benchmark/traffic.hpp"
#include "src/corpus/generator.hpp"
#include "src/eval/bc2gm_eval.hpp"
#include "src/graphner/experiment.hpp"
#include "src/obs/span.hpp"
#include "src/router/router.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;
using namespace graphner::benchmark;
namespace fs = std::filesystem;

struct Workload {
  const char* name;
  std::size_t pool;
  double skew;       ///< Zipf exponent of the draws; 0 = uniform
  bool learn_beside_reads;
};

constexpr Workload kWorkloads[] = {
    {"serve_unique", 100000, 0.0, false},
    {"serve_hot", 20000, 1.1, false},
    {"serve_learn", 20000, 1.1, true},
};

constexpr double kLoRate = 3000.0;
constexpr double kHiRate = 6000.0;
constexpr double kLearnInterval = 0.25;     ///< seconds between learn batches
constexpr std::size_t kLearnProbe = 16;  ///< batches sent back to back
constexpr std::size_t kLearnCheckSample = 512;
constexpr std::size_t kDecodeProbeSample = 2000;
constexpr double kLatencyLimitMs = 1000.0;  ///< slower counts as failed
constexpr std::size_t kCheckThreads = 4;

const std::vector<std::string> kEndToEnd = {"setup_s", "f1", "lo.p95_ms",
                                            "hi.p95_ms", "learn.p50_ms"};

const std::vector<std::string> kPerLayer = {
    "protocol.parse_us",      "protocol.format_us",
    "router.submit_us",       "router.hit_us",
    "serve.queue_us.p50",     "serve.queue_us.p90",
    "serve.decode_us.p50",    "serve.decode_us.p90",
    "serve.handoff_us",       "serve.batch_mean",
    "serve.coalesced_ratio",  "router.hit_ratio",
    "router.replica_skew",    "features.extract_us",
    "crf.posteriors_us",      "crf.viterbi_us",
    "blend.us",               "learn.absorb_ms",
    "learn.snapshot_ms",      "learn.commit_ms",
    "learn.invalidated_entries", "learn.relaxations",
    "learn.appended_vertices", "train.brown_s",
    "train.word2vec_s",       "train.kmeans_s",
    "train.encode_s",         "train.crf_s",
    "train.reference_s",      "test.crf_inference_s",
    "test.graph_construction_s", "test.propagation_s",
    "test.combine_decode_s",  "graph.vertices",
    "graph.edges"};

const char* const kTrainSpans[] = {"brown", "word2vec", "kmeans",
                                   "encode", "crf", "reference"};
const char* const kTestSpans[] = {"crf_inference", "graph_construction",
                                  "propagation", "combine_decode"};

/// Ends the process if a run hangs, so it never outlives its time budget.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit](std::stop_token stop) {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!wake_.wait_for(lock, stop, limit, [] { return false; })) {
            if (stop.stop_requested()) return;
            std::fprintf(stderr, "watchdog: run exceeded %llds\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(3);
          }
        }) {}

 private:
  std::mutex mutex_;
  std::condition_variable_any wake_;
  std::jthread thread_;  ///< last: joined before the members it uses go
};

/// The program under test, as set-up left it.
struct System {
  std::shared_ptr<const core::GraphNerModel> model;
  std::unique_ptr<router::Router> router;
};

struct SetupTimes {
  std::vector<double> setup_s, train_s, test_s;
  std::vector<std::vector<double>> train_spans, test_spans;
  double f1 = 0.0;
  std::size_t vertices = 0, edges = 0;
};

core::GraphNerConfig model_config() {
  core::GraphNerConfig config;
  config.profile = core::CrfProfile::kBannerChemDner;
  config.alpha = 0.5;
  config.propagation = {1e-4, 1e-6, 1};
  return config;
}

/// Set up `repeats` times; keeps the last system. `started` runs on every
/// router but the last, after its set-up was timed.
System set_up(std::size_t repeats, const Inputs& inputs, const fs::path& work,
              SetupTimes& times, Report& report,
              const std::function<void(router::Router&)>& started) {
  System system;
  std::uint64_t fingerprint = 0;
  std::vector<std::vector<text::Tag>> first_tags;
  times.train_spans.assign(std::size(kTrainSpans), {});
  times.test_spans.assign(std::size(kTestSpans), {});
  for (std::size_t k = 0; k < repeats; ++k) {
    if (system.router) system.router->stop();
    system = {};
    const fs::path wal = work / ("wal-" + std::to_string(k));
    fs::create_directories(wal);

    util::Stopwatch whole;
    const auto spec = corpus::bc2gm_like_spec(2.0, 42);
    const corpus::LabelledCorpus data = corpus::generate_corpus(spec);
    const auto unlabelled = corpus::generate_unlabelled(spec, 30000, 11);
    obs::SpanCapture capture;
    util::Stopwatch train_watch;
    auto model = std::make_shared<const core::GraphNerModel>(
        core::GraphNerModel::train(data.train, unlabelled, model_config()));
    times.train_s.push_back(train_watch.seconds());
    util::Stopwatch test_watch;
    const auto result = model->test(data.train, data.test);
    times.test_s.push_back(test_watch.seconds());

    router::RouterConfig config;
    config.replicas = 2;
    config.replica_service.workers = 2;
    config.replica_service.blend_decode = true;
    config.learn_enabled = true;
    config.learn_wal_dir = wal.string();
    config.canary = inputs.canary;
    system.router = std::make_unique<router::Router>(model, config);
    system.model = std::move(model);
    times.setup_s.push_back(whole.seconds());

    for (std::size_t s = 0; s < std::size(kTrainSpans); ++s)
      times.train_spans[s].push_back(
          capture.total_seconds(std::string("train.") + kTrainSpans[s]));
    for (std::size_t s = 0; s < std::size(kTestSpans); ++s)
      times.test_spans[s].push_back(
          capture.total_seconds(std::string("test.") + kTestSpans[s]));
    if (k == 0) {
      fingerprint = system.model->fingerprint();
      first_tags = result.graphner_tags;
      times.f1 = eval::evaluate_bc2gm(
                     core::tags_to_annotations(data.test, result.graphner_tags),
                     data.test_gold, data.test_alternatives)
                     .metrics.f_score();
      times.vertices = result.stats.vertices;
      times.edges = result.stats.edges;
    } else {
      if (system.model->fingerprint() != fingerprint)
        report.fail("set-up " + std::to_string(k) +
                    " trained a model with another fingerprint");
      if (result.graphner_tags != first_tags)
        report.fail("set-up " + std::to_string(k) +
                    " tagged the test split differently");
    }
    if (k + 1 < repeats) started(*system.router);
  }
  return system;
}

/// One "#REPLICA learn file" call as the router answered it.
struct LearnCall {
  std::size_t batch = 0;
  double due_s = 0.0;  ///< seconds since `epoch`
  double latency_ms = 0.0;  ///< from the time the batch was due
  bool committed = false;
  std::uint64_t appended = 0, relaxations = 0, invalidated = 0;
};

/// The number written between `before` and `after` in a learn reply, e.g.
/// ("invalidated ", " cache entries") -> 12; 0 when there is none.
std::uint64_t reply_number(const std::string& reply, const std::string& before,
                           const std::string& after) {
  std::size_t end = reply.find(after);
  while (end != std::string::npos) {
    std::size_t start = end;
    while (start > 0 && std::isdigit(static_cast<unsigned char>(reply[start - 1])))
      --start;
    if (start < end && start >= before.size() &&
        reply.compare(start - before.size(), before.size(), before) == 0)
      return std::stoull(reply.substr(start, end - start));
    end = reply.find(after, end + 1);
  }
  return 0;
}

/// Send the learn batches in `files` on a schedule starting at `start`
/// (`interval` 0 = back to back) until `until`; due times are recorded
/// relative to `epoch`.
std::vector<LearnCall> send_learn_batches(
    router::Router& router, const std::vector<fs::path>& files,
    Clock::time_point epoch, Clock::time_point start, double interval,
    Clock::time_point until, Report& report) {
  std::vector<LearnCall> calls;
  for (std::size_t k = 0; k < files.size(); ++k) {
    const Clock::time_point due =
        interval > 0.0 ? start + to_duration(interval * static_cast<double>(k))
                       : Clock::now();
    if (due >= until) break;
    std::this_thread::sleep_until(due);
    const std::string reply = router.admin("learn file " + files[k].string());
    LearnCall call;
    call.batch = k;
    call.due_s = std::chrono::duration<double>(due - epoch).count();
    call.latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    call.committed = reply.rfind("OK learned", 0) == 0;
    if (call.committed) {
      call.appended = reply_number(reply, "+", " vertices");
      call.relaxations = reply_number(reply, "", " relaxations");
      call.invalidated = reply_number(reply, "invalidated ", " cache entries");
    } else if (reply.find("rejected by canary gate") == std::string::npos) {
      report.fail("learn batch " + std::to_string(k) + ": " + reply);
    }
    calls.push_back(call);
  }
  return calls;
}

/// The conservation law the router keeps once drained.
void check_ledger(router::Router& router, Report& report) {
  const auto snapshot = router.observability_snapshot();
  const auto requests = snapshot.counter_value("router.requests");
  const auto hits = snapshot.counter_value("cache.hits");
  const auto misses = snapshot.counter_value("cache.misses");
  if (requests != hits + misses)
    report.fail("router.requests " + std::to_string(requests) +
                " != cache.hits + cache.misses " + std::to_string(hits + misses));
}

double ms(double seconds) { return seconds * 1e3; }

/// Per-window quantile `q` of latency (ms from due) in `phase`; `parity`
/// -1 = every window, 0/1 = even/odd windows only.
std::vector<double> window_latencies(const TrafficResult& traffic,
                                     std::size_t phase, double q,
                                     int parity = -1) {
  std::vector<std::vector<double>> windows(kWindows);
  for (const Completion& c : traffic.completions)
    if (c.phase == phase)
      windows[window_of(traffic, phase, c.due_s)].push_back(ms(c.done_s - c.due_s));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kWindows; ++w)
    if (parity < 0 || static_cast<int>(w % 2) == parity)
      per_window.push_back(quantile(windows[w], q));
  return per_window;
}

/// Completions per second in each window of `phase`, by completion time.
std::vector<double> window_throughputs(const TrafficResult& traffic,
                                       std::size_t phase) {
  std::vector<double> counts(kWindows, 0.0);
  const double start = traffic.phase_start_s[phase];
  const double end = traffic.phase_start_s[phase + 1];
  for (const Completion& c : traffic.completions)
    if (c.phase == phase && c.done_s >= start && c.done_s < end)
      counts[window_of(traffic, phase, c.done_s)] += 1.0;
  for (double& count : counts) count /= (end - start) / kWindows;
  return counts;
}

/// True when the phase's backlog grew: by Little's law the mean number in
/// flight is rate x mean latency, so at a fixed rate a mean latency that
/// doubled from the second window to the last means a queue that kept
/// growing. The first window is skipped: it still drains the phase before.
bool backlog_growing(const TrafficResult& traffic, std::size_t phase) {
  std::vector<double> sum(kWindows, 0.0), count(kWindows, 0.0);
  for (const Completion& c : traffic.completions)
    if (c.phase == phase) {
      const std::size_t w = window_of(traffic, phase, c.due_s);
      sum[w] += c.done_s - c.due_s;
      count[w] += 1.0;
    }
  const double second = sum[1] / std::max(count[1], 1.0);
  const double last = sum[kWindows - 1] / std::max(count[kWindows - 1], 1.0);
  return last > 2.0 * second;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  fs::path build_dir;
};

Options parse_options(int argc, char** argv) {
  util::Cli cli("graphner_bench", "GraphNER system benchmark (one workload)");
  auto workload = cli.flag<std::string>(
      "workload", "", "serve_unique | serve_hot | serve_learn");
  auto seed = cli.flag<std::uint64_t>("seed", 1, "seed of the generated inputs");
  auto seconds = cli.flag<double>("seconds", 15.0, "measured traffic seconds");
  auto trace = cli.flag<int>("trace", 0, "1 = per-layer run");
  auto smoke = cli.toggle("smoke", "shrink every phase; all checks stay on");
  auto build_dir = cli.flag<std::string>("build-dir", "benchmark/build",
                                         "where scratch files and traces go");
  cli.parse(argc, argv);

  Options options;
  for (const Workload& w : kWorkloads)
    if (*workload == w.name) options.workload = &w;
  if (options.workload == nullptr || *seconds <= 0.0 || (*trace != 0 && *trace != 1))
    throw std::invalid_argument("bad --workload, --seconds or --trace\n" +
                                cli.usage());
  options.seed = *seed;
  options.seconds = *seconds;
  options.trace = *trace == 1;
  options.smoke = *smoke;
  options.build_dir = *build_dir;
  return options;
}

void write_trace(const fs::path& path, const TrafficResult& traffic,
                 const std::vector<Phase>& phases) {
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (const Completion& c : traffic.completions) {
    if (c.trace_id == 0) continue;
    out << (first ? "" : ",\n") << "{\"id\":" << c.trace_id << ",\"phase\":\""
        << phases[c.phase].name << "\",\"line\":" << c.line
        << ",\"hit\":" << (c.hit ? "true" : "false")
        << ",\"due_s\":" << c.due_s << ",\"late_us\":" << (c.sent_s - c.due_s) * 1e6
        << ",\"parse_us\":" << c.parse_us << ",\"submit_us\":" << c.submit_us
        << ",\"queue_us\":" << c.queue_us << ",\"decode_us\":" << c.decode_us
        << ",\"format_us\":" << c.format_us << ",\"batch\":" << c.batch
        << ",\"e2e_us\":" << (c.done_s - c.due_s) * 1e6 << '}';
    first = false;
  }
  out << "\n]\n";
}

int run(const Options& options) {
  const Workload& workload = *options.workload;
  Report report;
  const fs::path work =
      options.build_dir / ("work-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  struct RemoveWork {
    fs::path path;
    ~RemoveWork() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } remove_work{work};

  // Phases: a third of --seconds each (at most 0.6 s with --smoke).
  const double phase_s =
      options.smoke ? std::min(options.seconds / 3.0, 0.6) : options.seconds / 3.0;
  const double warmup_s = options.smoke ? 0.3 : 1.0;
  const std::vector<Phase> phases = {{"warmup", kLoRate, warmup_s},
                                     {"lo", kLoRate, phase_s},
                                     {"hi", kHiRate, phase_s},
                                     {"sat", 0.0, phase_s}};
  constexpr std::size_t kLo = 1, kHi = 2, kSat = 3;
  const std::size_t probe_batches = options.smoke ? 4 : kLearnProbe;
  const std::size_t learn_batches =
      workload.learn_beside_reads
          ? std::max(probe_batches,
                     static_cast<std::size_t>(3.0 * phase_s / kLearnInterval) + 1)
          : probe_batches;

  const Inputs inputs =
      make_inputs(workload.pool, learn_batches, options.seed);
  std::vector<fs::path> batch_files;
  for (std::size_t k = 0; k < inputs.learn_batches.size(); ++k) {
    batch_files.push_back(work / ("batch-" + std::to_string(k) + ".txt"));
    std::ofstream out(batch_files.back());
    for (const auto& sentence : inputs.learn_batches[k]) {
      for (std::size_t t = 0; t < sentence.size(); ++t)
        out << (t > 0 ? " " : "") << sentence.tokens[t];
      out << '\n';
    }
  }

  // The first batches go back to back to every set-up's router, so each is
  // timed at several points of the run; learn.p50_ms keeps each batch's
  // fastest time. The last round is the router that serves the traffic.
  const std::vector<fs::path> probe_files(batch_files.begin(),
                                          batch_files.begin() +
                                              static_cast<std::ptrdiff_t>(probe_batches));
  std::vector<std::vector<LearnCall>> learn_rounds;
  const auto learn_back_to_back = [&](router::Router& target) {
    const Clock::time_point now = Clock::now();
    learn_rounds.push_back(send_learn_batches(target, probe_files, now, now, 0.0,
                                              Clock::time_point::max(), report));
  };
  SetupTimes times;
  System system = set_up(options.smoke ? 2 : 3, inputs, work, times, report,
                         learn_back_to_back);
  router::Router& router = *system.router;
  report.add("setup_s", median(times.setup_s), "s");
  report.add("f1", times.f1, "F1");

  // --- traffic, with learn batches beside it on serve_learn ---
  std::uint64_t draw_seed = options.seed ^ 0x5eedULL;
  Draw draw(workload.pool, workload.skew, util::splitmix64(draw_seed));
  const Clock::time_point epoch = Clock::now();
  std::vector<LearnCall> beside_reads;
  TrafficResult traffic;
  {
    std::jthread writer;
    if (workload.learn_beside_reads) {
      const Clock::time_point start = epoch + to_duration(warmup_s);
      const Clock::time_point end = start + to_duration(3.0 * phase_s);
      writer = std::jthread([&, start, end] {
        beside_reads = send_learn_batches(router, batch_files, epoch, start,
                                          kLearnInterval, end, report);
      });
    }
    traffic = run_traffic(router, inputs.reads.lines, draw, phases, epoch,
                          options.trace);
  }

  // --- correctness of the traffic ---
  std::uint64_t not_ok = 0, late = 0, retries = 0;
  for (const Completion& c : traffic.completions) {
    if (!c.ok) ++not_ok;
    else if (ms(c.done_s - c.due_s) > kLatencyLimitMs) ++late;
    retries += c.retries;
  }
  report.attempt(traffic.completions.size());
  if (not_ok > 0)
    report.fail(std::to_string(not_ok) + " responses were not OK", not_ok);
  if (late > 0)
    report.fail(std::to_string(late) + " responses came more than " +
                    std::to_string(static_cast<int>(kLatencyLimitMs)) +
                    " ms after they were due",
                late);
  if (!workload.learn_beside_reads) {
    // Every served line must match the offline blended decode byte for byte.
    std::vector<std::uint32_t> slot(workload.pool, UINT32_MAX);
    std::vector<const text::Sentence*> served;
    for (const Completion& c : traffic.completions)
      if (slot[c.line] == UINT32_MAX) {
        slot[c.line] = static_cast<std::uint32_t>(served.size());
        served.push_back(&inputs.reads.sentences[c.line]);
      }
    const auto expected = offline_hashes(*system.model, served, kCheckThreads);
    std::uint64_t mismatched = 0;
    for (const Completion& c : traffic.completions)
      if (c.ok && c.hash != expected[slot[c.line]]) ++mismatched;
    if (mismatched > 0)
      report.fail(std::to_string(mismatched) +
                      " served lines differ from the offline decode",
                  mismatched);
  }
  check_ledger(router, report);

  // --- learning after the reads (serve_unique, serve_hot) ---
  if (workload.learn_beside_reads)
    learn_rounds.push_back(beside_reads);
  else
    learn_back_to_back(router);
  const std::vector<LearnCall>& learn_calls = learn_rounds.back();
  for (const auto& round : learn_rounds) report.attempt(round.size());

  // A fresh learner fed the committed batches must reach the generation
  // the tier serves, and a sample must then match it byte for byte.
  std::vector<std::vector<text::Sentence>> committed;
  for (const LearnCall& call : learn_calls)
    if (call.committed) committed.push_back(inputs.learn_batches[call.batch]);
  const Replay replay = replay_learning(system.model, committed);
  for (std::size_t i = 0; i < router.replica_count(); ++i)
    if (router.replica(i).fingerprint() != replay.model->fingerprint())
      report.fail("replica " + std::to_string(i) +
                  " does not serve the generation a fresh learner reaches");
  {
    const std::size_t n = std::min(kLearnCheckSample, inputs.reads.lines.size());
    std::vector<const text::Sentence*> sample;
    for (std::size_t i = 0; i < n; ++i) sample.push_back(&inputs.reads.sentences[i]);
    const auto expected = offline_hashes(*replay.model, sample, kCheckThreads);
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (line_hash(serve_once(router, inputs.reads.lines[i])) != expected[i])
        ++mismatched;
    report.attempt(n);
    if (mismatched > 0)
      report.fail(std::to_string(mismatched) +
                      " sampled lines differ from the learned generation's "
                      "offline decode",
                  mismatched);
  }
  check_ledger(router, report);

  // --- end-to-end metrics ---
  report.add("lo.p95_ms", median(window_latencies(traffic, kLo, 0.95)), "ms");
  report.add("hi.p95_ms", median(window_latencies(traffic, kHi, 0.95)), "ms");
  std::vector<double> learn_ms;
  for (std::size_t k = 0; k < probe_batches; ++k) {
    // Batch k did the same work on every router: keep its fastest time.
    double best = std::numeric_limits<double>::infinity();
    for (const auto& round : learn_rounds)
      if (k < round.size()) best = std::min(best, round[k].latency_ms);
    learn_ms.push_back(best);
  }
  report.add("learn.p50_ms", median(learn_ms), "ms");

  // --- diagnostics: printed, never gated ---
  report.add("error_rate",
             static_cast<double>(report.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1)),
             "failed/attempted");
  report.add("client.retries", static_cast<double>(retries), "count");
  if (workload.learn_beside_reads) {
    // Batches due while reads came at a fixed rate, from their due time.
    std::vector<double> loaded_ms;
    for (const LearnCall& call : beside_reads)
      if (call.due_s < traffic.phase_start_s[kSat])
        loaded_ms.push_back(call.latency_ms);
    report.add("learn.loaded_p50_ms", median(loaded_ms), "ms");
  }
  report.add("train_s", median(times.train_s), "s");
  report.add("test_s", median(times.test_s), "s");
  for (const std::size_t p : {kLo, kHi})
    for (const double q : {0.50, 0.90, 0.99})
      report.add(phases[p].name + ".p" + std::to_string(static_cast<int>(q * 100)) +
                     "_ms",
                 median(window_latencies(traffic, p, q)), "ms");
  report.add("throughput_rps", median(window_throughputs(traffic, kSat)),
             "req/s");
  report.add("sat.p50_ms", median(window_latencies(traffic, kSat, 0.50)), "ms");
  {
    std::vector<double> late_us;
    double late_max = 0.0;
    for (const Completion& c : traffic.completions)
      if (c.phase == kLo || c.phase == kHi) {
        late_us.push_back((c.sent_s - c.due_s) * 1e6);
        late_max = std::max(late_max, c.sent_s - c.due_s);
      }
    report.add("gen.late_p50_us", median(late_us), "us");
    report.add("gen.late_max_ms", ms(late_max), "ms");
  }
  for (const std::size_t p : {kLo, kHi})
    report.add(phases[p].name + ".backlog_growing",
               backlog_growing(traffic, p) ? 1.0 : 0.0, "bool");

  if (options.trace) {
    // Per-request stages from the sampled lo-phase requests.
    std::vector<double> parse, submit, format, hit, queue, decode, handoff,
        explained, e2e;
    for (const Completion& c : traffic.completions) {
      if (c.trace_id == 0 || c.phase != kLo) continue;
      const double total_us = (c.done_s - c.due_s) * 1e6;
      const double stages = (c.sent_s - c.due_s) * 1e6 + c.parse_us + c.submit_us +
                            c.queue_us + c.decode_us + c.format_us;
      parse.push_back(c.parse_us);
      submit.push_back(c.submit_us);
      format.push_back(c.format_us);
      if (c.hit) {
        hit.push_back((c.done_s - c.sent_s) * 1e6);
      } else {
        queue.push_back(c.queue_us);
        decode.push_back(c.decode_us);
      }
      handoff.push_back(total_us - stages);
      explained.push_back(stages);
      e2e.push_back(total_us);
    }
    report.add("protocol.parse_us", median(parse), "us");
    report.add("protocol.format_us", median(format), "us");
    report.add("router.submit_us", median(submit), "us");
    report.add("router.hit_us", median(hit), "us");
    report.add("serve.queue_us.p50", quantile(queue, 0.5), "us");
    report.add("serve.queue_us.p90", quantile(queue, 0.9), "us");
    report.add("serve.decode_us.p50", quantile(decode, 0.5), "us");
    report.add("serve.decode_us.p90", quantile(decode, 0.9), "us");
    report.add("serve.handoff_us", median(handoff), "us");
    // Not a gate: a request's wait behind the earlier requests of its own
    // micro-batch happens inside the service and is not observable from
    // here, so it lands in serve.handoff_us with the wake-ups.
    report.add("trace.explained_share",
               median(explained) / std::max(median(e2e), 1e-9), "ratio");
    report.add("trace.overhead",
               median(window_latencies(traffic, kLo, 0.5, 0)) /
                   median(window_latencies(traffic, kLo, 0.5, 1)),
               "ratio");

    const auto snapshot = router.observability_snapshot();
    double completed = 0, batches = 0, coalesced = 0, skew_max = 0, skew_sum = 0;
    for (std::size_t i = 0; i < router.replica_count(); ++i) {
      const std::string prefix = "replica." + std::to_string(i) + ".";
      completed += static_cast<double>(snapshot.counter_value(prefix + "completed"));
      batches += static_cast<double>(snapshot.counter_value(prefix + "batches"));
      coalesced += static_cast<double>(snapshot.counter_value(prefix + "coalesced"));
      const auto submitted =
          static_cast<double>(snapshot.counter_value(prefix + "submitted"));
      skew_max = std::max(skew_max, submitted);
      skew_sum += submitted;
    }
    report.add("serve.batch_mean", completed / std::max(batches, 1.0), "requests");
    report.add("serve.coalesced_ratio", coalesced / std::max(completed, 1.0), "ratio");
    report.add("router.hit_ratio",
               static_cast<double>(snapshot.counter_value("cache.hits")) /
                   std::max(1.0, static_cast<double>(
                                     snapshot.counter_value("router.requests"))),
               "ratio");
    report.add("router.replica_skew",
               skew_max / std::max(skew_sum / static_cast<double>(router.replica_count()), 1.0),
               "ratio");
    report.add("router.failovers",
               static_cast<double>(snapshot.counter_value("router.failovers")), "count");
    report.add("router.unavailable",
               static_cast<double>(snapshot.counter_value("router.unavailable")),
               "count");

    // Single layers, after the traffic.
    std::vector<text::Sentence> sample(
        inputs.reads.sentences.begin(),
        inputs.reads.sentences.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(kDecodeProbeSample, inputs.reads.sentences.size())));
    const DecodeLayers layers = probe_decode_layers(*system.model, sample);
    report.add("features.extract_us", layers.extract_us, "us");
    report.add("crf.posteriors_us", layers.posteriors_us, "us");
    report.add("crf.viterbi_us", layers.viterbi_us, "us");
    report.add("blend.us", layers.blend_us, "us");

    std::vector<double> admin_ms;
    std::uint64_t invalidated = 0, relaxations = 0, appended = 0;
    for (const LearnCall& call : learn_calls) {
      admin_ms.push_back(call.latency_ms);
      invalidated += call.invalidated;
      relaxations += call.relaxations;
      appended += call.appended;
    }
    const double absorb = median(replay.absorb_ms);
    const double snapshot_ms = median(replay.snapshot_ms);
    report.add("learn.absorb_ms", absorb, "ms");
    report.add("learn.snapshot_ms", snapshot_ms, "ms");
    report.add("learn.commit_ms", median(admin_ms) - absorb - snapshot_ms, "ms");
    report.add("learn.invalidated_entries", static_cast<double>(invalidated), "count");
    report.add("learn.relaxations", static_cast<double>(relaxations), "count");
    report.add("learn.appended_vertices", static_cast<double>(appended), "count");

    for (std::size_t s = 0; s < std::size(kTrainSpans); ++s)
      report.add(std::string("train.") + kTrainSpans[s] + "_s",
                 median(times.train_spans[s]), "s");
    for (std::size_t s = 0; s < std::size(kTestSpans); ++s)
      report.add(std::string("test.") + kTestSpans[s] + "_s",
                 median(times.test_spans[s]), "s");
    report.add("graph.vertices", static_cast<double>(times.vertices), "count");
    report.add("graph.edges", static_cast<double>(times.edges), "count");

    write_trace(options.build_dir / (std::string("trace-") + workload.name + ".json"),
                traffic, phases);
  }

  router.stop();
  report.print_result(options.trace ? kPerLayer : kEndToEnd);
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    util::set_log_level(util::LogLevel::kWarn);
    Watchdog watchdog(std::chrono::seconds(170));
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "graphner_bench: " << e.what() << '\n';
    return 2;
  }
}
