// Incremental online learning vs full rebuild (ISSUE 8 acceptance bench).
//
// A served tier has absorbed a base corpus; new text arrives amounting to
// 1% / 5% / 20% of it. Two ways to fold it in:
//
//   incremental — OnlineLearner.learn(growth): new trigrams are scored
//                 against the persistent posting index, reverse edges are
//                 patched, and a residual-driven localized re-propagation
//                 relaxes only the touched neighbourhood;
//   rebuild     — a fresh OnlineLearner absorbs base + growth in one shot:
//                 full posting build, full posterior pass, propagation
//                 from scratch (the offline-retrain cost an online tier
//                 would otherwise pay per batch).
//
// Written to BENCH_learn.json per growth level: both wall-clocks, the
// speedup, the incremental solution's true fixed-point residual (one full
// Jacobi sweep over *all* vertices — localized relaxation must have left
// no hidden residual anywhere), and the token-level tag agreement between
// the two resulting learned forks on the growth sentences.
//
// CI gates: speedup >= --min-speedup at growth <= 5% (ISSUE 8 asks 3x),
// residual <= --max-residual, agreement >= --min-agreement. Pass
// --min-speedup 0 on noisy shared runners for an accuracy-only run.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/graphner/learner.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace graphner;

struct LevelResult {
  double growth_fraction = 0.0;
  std::size_t base_sentences = 0;
  std::size_t growth_sentences = 0;
  std::size_t appended_vertices = 0;
  std::size_t patched_vertices = 0;
  std::size_t relaxations = 0;
  std::size_t active_vertices = 0;
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double fixed_point_residual = 0.0;
  double tag_agreement = 0.0;

  [[nodiscard]] double speedup() const noexcept {
    return incremental_seconds > 0.0 ? rebuild_seconds / incremental_seconds
                                     : 0.0;
  }
};

/// Sup-norm residual of `learner`'s solution under one full Jacobi sweep:
/// zero (within solver tolerance) iff the localized relaxation actually
/// reached the global fixed point, not just a quiet neighbourhood.
double full_sweep_residual(const core::OnlineLearner& learner, double mu,
                           double nu) {
  propagation::PropagationConfig config;
  config.mu = mu;
  config.nu = nu;
  config.iterations = 1;
  config.loss_every = 0;
  const auto& x = learner.distributions();
  const propagation::PropagationResult swept = propagation::propagate(
      learner.index().graph(), x, learner.anchors(), learner.labelled_mask(),
      config);
  double residual = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v)
    for (std::size_t y = 0; y < text::kNumTags; ++y)
      residual = std::max(residual,
                          std::abs(swept.distributions[v][y] - x[v][y]));
  return residual;
}

/// Token-level agreement of the two learned forks' blended decodes.
double tag_agreement(const core::GraphNerModel& a, const core::GraphNerModel& b,
                     const std::vector<text::Sentence>& sentences) {
  crf::LinearChainCrf::Scratch scratch_a, scratch_b;
  features::EncodeScratch encode_a, encode_b;
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const auto& sentence : sentences) {
    if (sentence.size() == 0) continue;
    const auto tags_a = a.decode_one_blended(sentence, scratch_a, encode_a);
    const auto tags_b = b.decode_one_blended(sentence, scratch_b, encode_b);
    for (std::size_t i = 0; i < tags_a.size(); ++i) {
      agree += tags_a[i] == tags_b[i] ? 1 : 0;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(agree) / static_cast<double>(total)
                   : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("incremental_learn",
                "incremental #REPLICA learn vs full rebuild at 1/5/20% corpus growth");
  auto scale = cli.flag<double>("scale", 0.1, "corpus scale for the toy model");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto tolerance =
      cli.flag<double>("tolerance", 1e-8, "learner propagation tolerance");
  auto min_speedup = cli.flag<double>(
      "min-speedup", 3.0,
      "CI gate: incremental vs rebuild speedup required at growth <= 5% "
      "(0 disables the timing gate)");
  auto max_residual = cli.flag<double>(
      "max-residual", 1e-6,
      "CI gate: full-sweep fixed-point residual bound on the incremental "
      "solution");
  auto min_agreement = cli.flag<double>(
      "min-agreement", 0.97,
      "CI gate: token-level tag agreement between the incremental and "
      "rebuilt learned forks on the growth sentences");
  auto json_out = cli.flag<std::string>("json", "BENCH_learn.json", "output file");
  cli.parse(argc, argv);

  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(*scale, *seed));
  auto model = std::make_shared<const core::GraphNerModel>(
      core::GraphNerModel::train(data.train, {},
                                 bench::bc2gm_config(core::CrfProfile::kBanner)));

  // Unlabelled pool: the test split with tags stripped. The first chunk is
  // the already-absorbed base corpus, successive slices after it are the
  // growth batches (disjoint per level so each level starts identically).
  std::vector<text::Sentence> pool;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    pool.push_back(std::move(stripped));
  }
  const std::size_t base_count = (pool.size() * 4) / 5;
  const std::vector<text::Sentence> base(pool.begin(),
                                         pool.begin() + base_count);

  core::OnlineLearnerConfig learn_config;
  learn_config.tolerance = *tolerance;
  const double mu = model->config().propagation.mu;
  const double nu = model->config().propagation.nu;

  const double fractions[] = {0.01, 0.05, 0.20};
  std::vector<LevelResult> results;
  std::size_t growth_cursor = base_count;
  util::TablePrinter table({"growth", "sents", "+vertices", "patched",
                            "relaxed", "inc s", "rebuild s", "speedup",
                            "residual", "agree"});

  for (const double fraction : fractions) {
    LevelResult level;
    level.growth_fraction = fraction;
    level.base_sentences = base.size();
    const std::size_t want = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(base.size())));
    const std::size_t take = std::min(want, pool.size() - growth_cursor);
    if (take == 0) {
      std::cerr << "pool exhausted before growth level " << fraction << '\n';
      return 1;
    }
    const std::vector<text::Sentence> growth(
        pool.begin() + growth_cursor, pool.begin() + growth_cursor + take);
    growth_cursor += take;
    level.growth_sentences = growth.size();

    // Incremental: absorb the base (untimed — that is the tier's standing
    // state), then time the growth batch alone.
    core::OnlineLearner incremental(model, learn_config);
    (void)incremental.learn(base);
    util::Stopwatch inc_watch;
    const core::LearnStats stats = incremental.learn(growth);
    level.incremental_seconds = inc_watch.seconds();
    level.appended_vertices = stats.appended_vertices;
    level.patched_vertices = stats.patched_vertices;
    level.relaxations = stats.relaxations;
    level.active_vertices = stats.active_vertices;
    level.fixed_point_residual = full_sweep_residual(incremental, mu, nu);

    // Rebuild: a fresh learner absorbs base + growth in one shot.
    std::vector<text::Sentence> all = base;
    all.insert(all.end(), growth.begin(), growth.end());
    core::OnlineLearner rebuilt(model, learn_config);
    util::Stopwatch rebuild_watch;
    (void)rebuilt.learn(all);
    level.rebuild_seconds = rebuild_watch.seconds();

    const auto fork_inc = incremental.snapshot_model();
    const auto fork_rebuilt = rebuilt.snapshot_model();
    level.tag_agreement = tag_agreement(*fork_inc, *fork_rebuilt, growth);

    table.add_row({util::TablePrinter::fmt(100 * fraction) + "%",
                   std::to_string(level.growth_sentences),
                   std::to_string(level.appended_vertices),
                   std::to_string(level.patched_vertices),
                   std::to_string(level.relaxations),
                   util::TablePrinter::fmt(level.incremental_seconds),
                   util::TablePrinter::fmt(level.rebuild_seconds),
                   util::TablePrinter::fmt(level.speedup()),
                   util::TablePrinter::fmt(level.fixed_point_residual),
                   util::TablePrinter::fmt(level.tag_agreement)});
    results.push_back(level);
  }
  table.print(std::cout, "incremental_learn (base " +
                             std::to_string(base.size()) + " sentences)");

  bool pass = true;
  for (const auto& level : results) {
    if (*min_speedup > 0.0 && level.growth_fraction <= 0.05 &&
        level.speedup() < *min_speedup) {
      std::cerr << "GATE: speedup " << level.speedup() << " < " << *min_speedup
                << " at growth " << level.growth_fraction << '\n';
      pass = false;
    }
    if (level.fixed_point_residual > *max_residual) {
      std::cerr << "GATE: fixed-point residual " << level.fixed_point_residual
                << " > " << *max_residual << " at growth "
                << level.growth_fraction << '\n';
      pass = false;
    }
    if (level.tag_agreement < *min_agreement) {
      std::cerr << "GATE: tag agreement " << level.tag_agreement << " < "
                << *min_agreement << " at growth " << level.growth_fraction
                << '\n';
      pass = false;
    }
  }

  std::ofstream json(*json_out);
  json << "{\n  \"base_sentences\": " << base.size()
       << ",\n  \"tolerance\": " << *tolerance << ",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"growth_fraction\": " << r.growth_fraction
         << ", \"growth_sentences\": " << r.growth_sentences
         << ", \"appended_vertices\": " << r.appended_vertices
         << ", \"patched_vertices\": " << r.patched_vertices
         << ", \"relaxations\": " << r.relaxations
         << ", \"active_vertices\": " << r.active_vertices
         << ", \"incremental_seconds\": " << r.incremental_seconds
         << ", \"rebuild_seconds\": " << r.rebuild_seconds
         << ", \"speedup\": " << r.speedup()
         << ", \"fixed_point_residual\": " << r.fixed_point_residual
         << ", \"tag_agreement\": " << r.tag_agreement << "}"
         << (i + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"gates\": {\"min_speedup\": " << *min_speedup
       << ", \"max_residual\": " << *max_residual
       << ", \"min_agreement\": " << *min_agreement
       << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
  std::cout << "wrote " << *json_out << (pass ? "" : " (GATES FAILED)") << '\n';
  return pass ? 0 : 1;
}
