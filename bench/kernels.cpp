// Microbenchmarks of the hot kernels (google-benchmark).
//
// Not a paper exhibit — these cover the inner loops whose complexity the
// paper analyzes in §II-E: CRF forward-backward and Viterbi (order 1/2),
// sparse cosine, exact k-NN construction, and one propagation sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/crf/model.hpp"
#include "src/graph/knn_graph.hpp"
#include "src/graph/sparse_vector.hpp"
#include "src/propagation/propagation.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace graphner;

crf::EncodedSentence random_sentence(std::size_t length, std::size_t num_features,
                                     util::Rng& rng) {
  crf::EncodedSentence s;
  s.features.resize(length);
  for (auto& feats : s.features) {
    for (int j = 0; j < 20; ++j)
      feats.push_back(static_cast<crf::FeatureIndex::Id>(rng.below(num_features)));
    std::sort(feats.begin(), feats.end());
    feats.erase(std::unique(feats.begin(), feats.end()), feats.end());
  }
  return s;
}

crf::LinearChainCrf random_model(const crf::StateSpace& space,
                                 std::size_t num_features, util::Rng& rng) {
  crf::LinearChainCrf model(space, num_features);
  std::vector<double> w(model.num_parameters());
  for (auto& x : w) x = rng.normal(0.0, 0.3);
  model.set_weights(w);
  return model;
}

/// A pool of sentences with spread-out lengths, cycled through the timed
/// loop so the latency distribution reflects real per-sentence variance
/// rather than one cached working set.
std::vector<crf::EncodedSentence> sentence_pool(std::size_t count,
                                                std::size_t num_features,
                                                util::Rng& rng) {
  std::vector<crf::EncodedSentence> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    pool.push_back(random_sentence(5 + (i * 7) % 41, num_features, rng));
  return pool;
}

/// The serving SLO cares about tail latency, not the mean the default
/// throughput report shows — attach per-sentence p50/p90/p99 counters.
void record_percentiles(benchmark::State& state, std::vector<double>& samples_us) {
  if (samples_us.empty()) return;
  std::sort(samples_us.begin(), samples_us.end());
  const auto pct = [&](double q) {
    return samples_us[static_cast<std::size_t>(q * (samples_us.size() - 1))];
  };
  state.counters["p50_us"] = pct(0.50);
  state.counters["p90_us"] = pct(0.90);
  state.counters["p99_us"] = pct(0.99);
}

void BM_ForwardBackward(benchmark::State& state) {
  util::Rng rng(1);
  const auto space = state.range(0) == 2 ? crf::StateSpace::order2()
                                         : crf::StateSpace::order1();
  constexpr std::size_t kFeatures = 5000;
  const auto model = random_model(space, kFeatures, rng);
  const auto pool = sentence_pool(64, kFeatures, rng);
  crf::LinearChainCrf::Scratch scratch;  // reused, as in the serving loops
  std::vector<double> samples_us;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(model.posteriors(pool[next], scratch));
    samples_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - begin)
                             .count());
    next = (next + 1) % pool.size();
  }
  record_percentiles(state, samples_us);
  state.SetLabel("order " + std::to_string(state.range(0)));
}
BENCHMARK(BM_ForwardBackward)->Arg(1)->Arg(2);

void BM_Viterbi(benchmark::State& state) {
  util::Rng rng(2);
  const auto space = state.range(0) == 2 ? crf::StateSpace::order2()
                                         : crf::StateSpace::order1();
  constexpr std::size_t kFeatures = 5000;
  const auto model = random_model(space, kFeatures, rng);
  const auto pool = sentence_pool(64, kFeatures, rng);
  crf::LinearChainCrf::Scratch scratch;
  std::vector<double> samples_us;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(model.viterbi(pool[next], scratch));
    samples_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - begin)
                             .count());
    next = (next + 1) % pool.size();
  }
  record_percentiles(state, samples_us);
  state.SetLabel("order " + std::to_string(state.range(0)));
}
BENCHMARK(BM_Viterbi)->Arg(1)->Arg(2);

/// Quantized-emission Viterbi on the order-2 space: Arg is the
/// Quantization (1 = int16, 2 = int8).
void BM_ViterbiQuantized(benchmark::State& state) {
  util::Rng rng(2);  // same seed as BM_Viterbi: directly comparable numbers
  const auto space = crf::StateSpace::order2();
  constexpr std::size_t kFeatures = 5000;
  auto model = random_model(space, kFeatures, rng);
  const auto pool = sentence_pool(64, kFeatures, rng);
  crf::DecodeOptions options;
  options.quantization = static_cast<crf::Quantization>(state.range(0));
  model.set_decode_options(options);
  crf::LinearChainCrf::Scratch scratch;
  std::vector<double> samples_us;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(model.viterbi(pool[next], scratch));
    samples_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - begin)
                             .count());
    next = (next + 1) % pool.size();
  }
  record_percentiles(state, samples_us);
  state.SetLabel(crf::quantization_name(options.quantization));
}
BENCHMARK(BM_ViterbiQuantized)->Arg(1)->Arg(2);

void BM_CrfGradient(benchmark::State& state) {
  util::Rng rng(3);
  const auto space = crf::StateSpace::order2();
  constexpr std::size_t kFeatures = 5000;
  const auto model = random_model(space, kFeatures, rng);
  auto sentence = random_sentence(25, kFeatures, rng);
  std::vector<text::Tag> tags(25, text::Tag::kO);
  sentence.states = space.encode(tags);
  std::vector<double> grad(model.num_parameters());
  crf::LinearChainCrf::Scratch scratch;
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    benchmark::DoNotOptimize(model.log_likelihood(sentence, grad, scratch));
  }
}
BENCHMARK(BM_CrfGradient);

std::vector<graph::SparseVector> random_vectors(std::size_t count, std::size_t dims,
                                                std::size_t nnz, util::Rng& rng) {
  std::vector<graph::SparseVector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<graph::SparseEntry> entries;
    for (std::size_t j = 0; j < nnz; ++j)
      entries.push_back({static_cast<std::uint32_t>(rng.below(dims)),
                         static_cast<float>(rng.uniform(0.1, 1.0))});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const auto& a, const auto& b) {
                                return a.index == b.index;
                              }),
                  entries.end());
    graph::SparseVector v(std::move(entries));
    v.normalize();
    out.push_back(std::move(v));
  }
  return out;
}

void BM_SparseCosine(benchmark::State& state) {
  util::Rng rng(4);
  const auto vectors = random_vectors(2, 10000, static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vectors[0].cosine(vectors[1]));
  }
}
BENCHMARK(BM_SparseCosine)->Arg(16)->Arg(64)->Arg(256);

void BM_KnnGraphBuild(benchmark::State& state) {
  util::Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto vectors = random_vectors(n, 2000, 24, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_knn_graph(vectors, {10, 100000, 1e-6}));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_KnnGraphBuild)->Arg(500)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond)->Complexity();

void BM_PropagationSweep(benchmark::State& state) {
  util::Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::KnnGraph knn(n, 10);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<graph::Edge> edges;
    for (int e = 0; e < 10; ++e)
      edges.push_back({static_cast<graph::VertexId>(rng.below(n)),
                       static_cast<float>(rng.uniform(0.1, 1.0))});
    knn.set_neighbours(static_cast<graph::VertexId>(v), std::move(edges));
  }
  std::vector<propagation::LabelDistribution> x(n, propagation::uniform_distribution());
  std::vector<propagation::LabelDistribution> ref(n, propagation::uniform_distribution());
  std::vector<bool> labelled(n, false);
  for (std::size_t v = 0; v < n; v += 3) labelled[v] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(propagation::propagate(knn, x, ref, labelled, {1e-4, 1e-6, 1}));
  }
}
BENCHMARK(BM_PropagationSweep)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace
