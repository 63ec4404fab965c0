// Accuracy/speed sweep for the quantized decode kernels (DESIGN.md §10).
//
// Trains an order-2 CRF on the synthetic BC2GM corpus, pre-encodes the test
// split, then sweeps the emission storage — float, int8 — measuring
// each configuration against the exact kernels with the repo's interleaved
// convention (alternating runs, median of each, so clock drift and cache
// warmth hit both sides equally). For every configuration it reports:
//
//   viterbi / fb   — median wall time of one full test-set decode pass and
//                    the speedup over the exact pass interleaved with it
//   exact spread   — interquartile range of the exact Viterbi passes over
//                    their median: a speedup inside it is noise
//   diff rate      — fraction of tokens whose Viterbi tag disagrees with
//                    the exact decode (the accuracy cost of quantization)
//
// The float row times the exact kernels against themselves, a noise-floor
// control. Writes BENCH_decode.json. With --max-diff-rate set, exits
// non-zero unless some quantized configuration clears both the accuracy
// and the --min-speedup bar — the CI gate.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/crf/trainer.hpp"
#include "src/features/encoder.hpp"
#include "src/features/extractor.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;

struct SweepConfig {
  std::string name;
  crf::DecodeOptions options;
};

struct SweepResult {
  SweepConfig config;
  double viterbi_ms = 0.0;
  double viterbi_exact_ms = 0.0;
  double fb_ms = 0.0;
  double fb_exact_ms = 0.0;
  double viterbi_exact_spread = 0.0;
  double diff_rate = 0.0;

  [[nodiscard]] double viterbi_speedup() const noexcept {
    return viterbi_ms > 0.0 ? viterbi_exact_ms / viterbi_ms : 0.0;
  }
  [[nodiscard]] double fb_speedup() const noexcept {
    return fb_ms > 0.0 ? fb_exact_ms / fb_ms : 0.0;
  }
};

[[nodiscard]] double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples.empty()
             ? 0.0
             : samples[static_cast<std::size_t>(q * (samples.size() - 1) + 0.5)];
}

[[nodiscard]] double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("decode_prune", "quantized decode accuracy-speed sweep");
  auto scale = cli.flag<double>("scale", 0.25, "synthetic corpus scale");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto order = cli.flag<int>("crf-order", 2, "CRF order (1 or 2)");
  auto reps = cli.flag<std::size_t>("reps", 5, "interleaved repetitions per config");
  auto json_out = cli.flag<std::string>("json", "BENCH_decode.json", "output file");
  auto max_diff_rate = cli.flag<double>(
      "max-diff-rate", 0.0,
      "CI gate: some quantized config must disagree with exact on at most this "
      "fraction of tokens (0 = no gate)");
  // The roadmap's 2x target presumed memory-bound emission scoring (a
  // feature table far outgrowing cache, every row a stall). Measured on the
  // reference box (single-core Xeon, 2 MB L2 / 260 MB L3), a realistic
  // Zipf-headed table stays warm enough that the ceiling at <= 0.1% tag
  // disagreement is ~1.1-1.25x (int8 emission); see
  // DESIGN.md §10. The default bar asserts that honestly-reachable win.
  auto min_speedup = cli.flag<double>(
      "min-speedup", 1.05, "CI gate: ... while decoding at least this much faster");
  cli.parse(argc, argv);

  // --- train an order-2 CRF on the synthetic corpus -----------------------
  // Decode-cost realism: real BC2GM abstract sentences average ~25 tokens
  // (the template bank alone gives ~10) and carry a long tail of
  // near-unique measurement tokens. Both matter to decode cost: sentence
  // length amortizes per-sentence overheads, and the numeric tail grows
  // the feature table past cache — the memory-bound emission regime the
  // quantized path exists for. The graph experiments keep the plain spec.
  auto spec = corpus::bc2gm_like_spec(*scale, *seed);
  spec.compound_clause_rate = 0.75;
  spec.numeric_richness = 0.9;
  // The real BioCreative II corpus spans thousands of distinct gene
  // symbols (unseen recurring symbols are the paper's whole premise);
  // the graph experiments' compact default lexicon keeps every gene row
  // hot in cache, which no deployment-size model enjoys.
  spec.lexicon.num_genes = std::max<std::size_t>(
      spec.lexicon.num_genes, static_cast<std::size_t>(800 * *scale));
  const auto data = corpus::generate_corpus(spec);
  const features::FeatureExtractor extractor{features::FeatureConfig{}};
  const auto space =
      *order == 1 ? crf::StateSpace::order1() : crf::StateSpace::order2();
  crf::FeatureIndex index;
  const crf::Batch train_batch =
      features::encode_batch_for_training(data.train, extractor, index, space);
  index.freeze();
  crf::LinearChainCrf model(space, index.size());
  const auto report = crf::train_crf(model, train_batch);
  std::cout << "trained order-" << *order << " CRF: " << index.size()
            << " features, objective " << report.final_objective << " after "
            << report.iterations << " iterations\n";

  // Pre-encode the test split once — the sweep times pure decode.
  const crf::Batch test_batch =
      features::encode_batch_for_inference(data.test, extractor, index);
  std::size_t total_tokens = 0;
  std::size_t total_active_features = 0;
  for (const auto& s : test_batch) {
    total_tokens += s.size();
    for (const auto& feats : s.features) total_active_features += feats.size();
  }
  std::cout << "test split: " << test_batch.size() << " sentences, "
            << total_tokens << " tokens, "
            << (total_tokens ? total_active_features / total_tokens : 0)
            << " features/token\n";

  // The quantized table is built once up front so per-call overrides may
  // use it.
  model.prepare_quantization(crf::Quantization::kInt8);

  std::vector<SweepConfig> configs;
  for (const auto quant : {crf::Quantization::kFloat, crf::Quantization::kInt8}) {
    crf::DecodeOptions options;
    options.quantization = quant;
    configs.push_back({crf::quantization_name(quant), options});
  }
  const crf::DecodeOptions exact{};

  // Exact reference tags, computed once: the accuracy yardstick.
  crf::LinearChainCrf::Scratch scratch;
  std::vector<std::vector<text::Tag>> reference;
  reference.reserve(test_batch.size());
  for (const auto& s : test_batch)
    reference.push_back(model.viterbi(s, scratch, exact));

  const auto decode_pass = [&](const crf::DecodeOptions& options) {
    for (const auto& s : test_batch)
      static_cast<void>(model.viterbi(s, scratch, options));
  };
  const auto posterior_pass = [&](const crf::DecodeOptions& options) {
    for (const auto& s : test_batch)
      static_cast<void>(model.posteriors(s, scratch, options));
  };

  std::vector<SweepResult> results;
  for (const auto& config : configs) {
    SweepResult result;
    result.config = config;

    // Accuracy (untimed pass).
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < test_batch.size(); ++i) {
      const auto tags = model.viterbi(test_batch[i], scratch, config.options);
      for (std::size_t t = 0; t < tags.size(); ++t)
        diffs += tags[t] != reference[i][t];
    }
    result.diff_rate =
        total_tokens > 0 ? static_cast<double>(diffs) / total_tokens : 0.0;

    // Interleaved timings, exact alternating with the config under test.
    std::vector<double> exact_v, cfg_v, exact_fb, cfg_fb;
    for (std::size_t r = 0; r < *reps; ++r) {
      {
        util::Stopwatch watch;
        decode_pass(exact);
        exact_v.push_back(watch.seconds() * 1e3);
      }
      {
        util::Stopwatch watch;
        decode_pass(config.options);
        cfg_v.push_back(watch.seconds() * 1e3);
      }
      {
        util::Stopwatch watch;
        posterior_pass(exact);
        exact_fb.push_back(watch.seconds() * 1e3);
      }
      {
        util::Stopwatch watch;
        posterior_pass(config.options);
        cfg_fb.push_back(watch.seconds() * 1e3);
      }
    }
    result.viterbi_exact_ms = median(exact_v);
    result.viterbi_exact_spread =
        result.viterbi_exact_ms > 0.0
            ? (quantile(exact_v, 0.75) - quantile(exact_v, 0.25)) /
                  result.viterbi_exact_ms
            : 0.0;
    result.viterbi_ms = median(cfg_v);
    result.fb_exact_ms = median(exact_fb);
    result.fb_ms = median(cfg_fb);
    results.push_back(result);
  }

  util::TablePrinter table({"config", "viterbi ms", "speedup", "exact spread %",
                            "fb ms", "fb speedup", "diff %"});
  for (const auto& r : results)
    table.add_row({r.config.name, util::TablePrinter::fmt(r.viterbi_ms),
                   util::TablePrinter::fmt(r.viterbi_speedup()) + "x",
                   util::TablePrinter::fmt(100 * r.viterbi_exact_spread),
                   util::TablePrinter::fmt(r.fb_ms),
                   util::TablePrinter::fmt(r.fb_speedup()) + "x",
                   util::TablePrinter::fmt(100 * r.diff_rate)});
  table.print(std::cout, "decode_prune (order " + std::to_string(*order) +
                             ", interleaved medians, " + std::to_string(*reps) +
                             " reps, " + std::to_string(test_batch.size()) +
                             " sentences)");

  // CI gate: some quantized configuration must be both fast and faithful
  // (the float row is the exact kernel timed against itself).
  bool gate_pass = true;
  double best_gated_speedup = 0.0;
  if (*max_diff_rate > 0.0) {
    bool any_qualified = false;
    for (const auto& r : results)
      if (!r.config.options.exact() && r.diff_rate <= *max_diff_rate) {
        any_qualified = true;
        best_gated_speedup = std::max(best_gated_speedup, r.viterbi_speedup());
      }
    // --min-speedup 0 still requires some config under the accuracy bar.
    gate_pass = any_qualified && best_gated_speedup >= *min_speedup;
    std::cout << "gate: best speedup at diff rate <= " << *max_diff_rate << " is "
              << best_gated_speedup << "x (need >= " << *min_speedup << "x): "
              << (gate_pass ? "PASS" : "FAIL") << '\n';
  }

  std::ofstream json(*json_out);
  json << "{\n  \"scale\": " << *scale << ",\n  \"crf_order\": " << *order
       << ",\n  \"reps\": " << *reps
       << ",\n  \"test_sentences\": " << test_batch.size()
       << ",\n  \"test_tokens\": " << total_tokens << ",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"config\": \"" << r.config.name << "\", \"quantized\": \""
         << crf::quantization_name(r.config.options.quantization)
         << "\", \"viterbi_ms\": " << r.viterbi_ms
         << ", \"viterbi_exact_ms\": " << r.viterbi_exact_ms
         << ", \"viterbi_exact_spread\": " << r.viterbi_exact_spread
         << ", \"viterbi_speedup\": " << r.viterbi_speedup()
         << ", \"fb_ms\": " << r.fb_ms << ", \"fb_exact_ms\": " << r.fb_exact_ms
         << ", \"fb_speedup\": " << r.fb_speedup()
         << ", \"diff_rate\": " << r.diff_rate << "}"
         << (i + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"quant_drift\": " << model.quantization_drift()
       << ",\n  \"max_diff_rate\": " << *max_diff_rate
       << ",\n  \"min_speedup\": " << *min_speedup
       << ",\n  \"best_gated_speedup\": " << best_gated_speedup
       << ",\n  \"gate_pass\": " << (gate_pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << *json_out << '\n';
  return gate_pass ? 0 : 1;
}
