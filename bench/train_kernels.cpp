// Before/after benchmark for the training-side kernels (ISSUE 3).
//
// Interleaves the frozen pre-change implementations with the rebuilt ones
// (alternating runs, median of each — the repo's convention for drift-free
// comparisons) and reports:
//
//   brown     — frozen dense V x V trainer (train_brown_reference) vs the
//               windowed (C+1)^2 trainer with the cached AMI-term table.
//               Same merge sequence (golden tests), so identical output.
//   word2vec  — serial trajectory (threads = 1, the pre-change code path)
//               vs Hogwild sharded SGD at --threads workers. The Hogwild
//               path also uses the sigmoid LUT + dependency-broken dots,
//               so it wins even when the workers timeslice one core.
//   kmeans    — cluster_embeddings under 1 vs --threads util workers
//               (deterministic either way; parallel assignment sweep).
//   train_e2e — composed legacy TRAIN (reference Brown + serial word2vec +
//               serial k-means + encode + L-BFGS + reference distributions,
//               all via public APIs) vs GraphNerModel::train with
//               embedding_threads = --threads.
//
// Writes BENCH_train.json. Acceptance: brown speedup >= 3x at BC2GM-scale
// vocabulary, word2vec >= 2x at 4 threads.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/crf/trainer.hpp"
#include "src/embeddings/brown.hpp"
#include "tests/support/brown_reference.hpp"
#include "src/embeddings/word2vec.hpp"
#include "src/features/encoder.hpp"
#include "src/features/extractor.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/graphner/reference.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;

struct KernelResult {
  std::string kernel;
  double before_ms = 0.0;
  double after_ms = 0.0;

  [[nodiscard]] double speedup() const noexcept {
    return after_ms > 0.0 ? before_ms / after_ms : 0.0;
  }
};

[[nodiscard]] double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// Alternate before/after runs so clock drift and cache warmth hit both
/// sides equally; return the medians.
template <typename Before, typename After>
KernelResult interleaved(const std::string& kernel, std::size_t reps,
                         const Before& before, const After& after) {
  std::vector<double> before_ms;
  std::vector<double> after_ms;
  for (std::size_t r = 0; r < reps; ++r) {
    {
      util::Stopwatch watch;
      before();
      before_ms.push_back(watch.seconds() * 1e3);
    }
    {
      util::Stopwatch watch;
      after();
      after_ms.push_back(watch.seconds() * 1e3);
    }
  }
  return {kernel, median(before_ms), median(after_ms)};
}

/// The TRAIN procedure exactly as it ran before this PR, composed from the
/// frozen/serial pieces through public APIs (mirrors GraphNerModel::train).
void legacy_train(const std::vector<text::Sentence>& labelled,
                  const std::vector<text::Sentence>& unlabelled,
                  const core::GraphNerConfig& config) {
  std::vector<text::Sentence> embedding_text = labelled;
  embedding_text.insert(embedding_text.end(), unlabelled.begin(), unlabelled.end());

  embeddings::BrownConfig brown_config;
  brown_config.num_clusters = config.brown_clusters;
  const auto brown = embeddings::train_brown_reference(embedding_text, brown_config);

  embeddings::Word2VecConfig w2v_config;
  w2v_config.seed = config.embedding_seed;
  w2v_config.threads = 1;
  const auto w2v = embeddings::Word2Vec::train(embedding_text, w2v_config);

  const int saved_threads = util::num_threads();
  util::set_num_threads(1);  // pre-change k-means was serial
  const auto clusters = embeddings::cluster_embeddings(
      w2v, config.embedding_kmeans_clusters, config.embedding_seed + 1);
  util::set_num_threads(saved_threads);

  features::FeatureConfig feature_config;
  feature_config.brown = &brown;
  feature_config.embedding_clusters = &clusters;
  const features::FeatureExtractor extractor(feature_config);

  const crf::StateSpace space = crf::StateSpace::order2();
  crf::FeatureIndex index;
  const crf::Batch batch =
      features::encode_batch_for_training(labelled, extractor, index, space);
  index.freeze();
  crf::LinearChainCrf crf(space, index.size());
  crf::train_crf(crf, batch, config.train);

  const auto reference = core::ReferenceDistributions::build(labelled);
  static_cast<void>(reference);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("train_kernels", "before/after timings for the training kernels");
  auto scale = cli.flag<double>("scale", 0.25, "labelled corpus scale for e2e train");
  auto unlabelled_count =
      cli.flag<std::size_t>("unlabelled", 75000, "unlabelled sentences for embeddings");
  auto brown_vocab =
      cli.flag<std::size_t>("brown-vocab", 12000, "Brown vocabulary cap for the kernel bench");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto threads = cli.flag<std::size_t>("threads", 4, "Hogwild / util worker count");
  auto reps = cli.flag<std::size_t>("reps", 5, "interleaved repetitions per kernel");
  auto e2e_reps = cli.flag<std::size_t>("e2e-reps", 3, "repetitions for e2e train");
  auto json_out = cli.flag<std::string>("json", "BENCH_train.json", "output file");
  cli.parse(argc, argv);

  // Widen the generator lexicon so the unlabelled pool reaches BC2GM-scale
  // vocabulary (real BC2GM training text has tens of thousands of types;
  // the default 200-gene lexicon tops out near 600 no matter how many
  // sentences are drawn). The Brown kernel is then benchmarked at a
  // matching vocabulary cap, where the reference's dense V x V tables stop
  // fitting in cache — the regime the windowed trainer exists for.
  auto spec = corpus::bc2gm_like_spec(1.0, *seed);
  spec.lexicon.num_genes = 150000;
  const auto embedding_text =
      corpus::generate_unlabelled(spec, *unlabelled_count, *seed + 7);
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(*scale, *seed));

  std::vector<KernelResult> results;

  // ---- Brown clustering (BC2GM-scale vocabulary, default cluster count).
  // min_count 1 matches the canonical brown-cluster tool (min-occur 1):
  // every observed type is clustered, which is what real BC2GM runs do.
  embeddings::BrownConfig brown_config;
  brown_config.max_vocabulary = *brown_vocab;
  brown_config.min_count = 1;
  {
    const auto probe = embeddings::BrownClustering::train(embedding_text, brown_config);
    std::cout << "brown: " << probe.vocabulary_size() << " words (cap "
              << brown_config.max_vocabulary << "), " << probe.num_clusters()
              << " clusters, " << embedding_text.size() << " sentences\n";
  }
  results.push_back(interleaved(
      "brown", *reps,
      [&] { (void)embeddings::train_brown_reference(embedding_text, brown_config); },
      [&] { embeddings::BrownClustering::train(embedding_text, brown_config); }));

  // ---- word2vec (serial trajectory vs Hogwild at --threads).
  embeddings::Word2VecConfig w2v_serial;
  w2v_serial.threads = 1;
  embeddings::Word2VecConfig w2v_hogwild;
  w2v_hogwild.threads = *threads;
  results.push_back(interleaved(
      "word2vec", *reps,
      [&] { embeddings::Word2Vec::train(embedding_text, w2v_serial); },
      [&] { embeddings::Word2Vec::train(embedding_text, w2v_hogwild); }));

  // ---- k-means assignment sweep, 1 vs --threads util workers.
  const auto w2v_model = embeddings::Word2Vec::train(embedding_text, w2v_serial);
  const int saved_threads = util::num_threads();
  results.push_back(interleaved(
      "kmeans", *reps,
      [&] {
        util::set_num_threads(1);
        (void)embeddings::cluster_embeddings(w2v_model, 40, 8);
      },
      [&] {
        util::set_num_threads(static_cast<int>(*threads));
        (void)embeddings::cluster_embeddings(w2v_model, 40, 8);
      }));
  util::set_num_threads(saved_threads);

  // ---- End-to-end TRAIN on the synthetic BC2GM corpus.
  auto config = bench::bc2gm_config(core::CrfProfile::kBannerChemDner);
  results.push_back(interleaved(
      "train_e2e", *e2e_reps,
      [&] { legacy_train(data.train, embedding_text, config); },
      [&] {
        auto fast = config;
        fast.embedding_threads = *threads;
        core::GraphNerModel::train(data.train, embedding_text, fast);
      }));

  util::TablePrinter table({"kernel", "before ms", "after ms", "speedup"});
  for (const auto& r : results)
    table.add_row({r.kernel, util::TablePrinter::fmt(r.before_ms),
                   util::TablePrinter::fmt(r.after_ms),
                   util::TablePrinter::fmt(r.speedup()) + "x"});
  table.print(std::cout, "train_kernels (interleaved medians, " +
                             std::to_string(*reps) + " reps, " +
                             std::to_string(*threads) + " threads, " +
                             std::to_string(embedding_text.size()) +
                             " embedding sentences)");

  std::ofstream json(*json_out);
  json << "{\n  \"scale\": " << *scale
       << ",\n  \"unlabelled_sentences\": " << embedding_text.size()
       << ",\n  \"threads\": " << *threads << ",\n  \"reps\": " << *reps
       << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"kernel\": \"" << r.kernel << "\", \"before_ms\": "
         << r.before_ms << ", \"after_ms\": " << r.after_ms
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < results.size() ? "," : "") << '\n';
  }
  auto speedup_of = [&](const std::string& kernel) {
    for (const auto& r : results)
      if (r.kernel == kernel) return r.speedup();
    return 0.0;
  };
  json << "  ],\n  \"brown_speedup\": " << speedup_of("brown")
       << ",\n  \"word2vec_speedup\": " << speedup_of("word2vec")
       << ",\n  \"kmeans_speedup\": " << speedup_of("kmeans")
       << ",\n  \"train_e2e_speedup\": " << speedup_of("train_e2e") << "\n}\n";
  std::cout << "wrote " << *json_out << '\n';
  return 0;
}
