#include "src/graphner/learner.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/obs/registry.hpp"
#include "src/obs/span.hpp"
#include "src/util/logging.hpp"

namespace graphner::core {

using propagation::LabelDistribution;

OnlineLearner::OnlineLearner(std::shared_ptr<const GraphNerModel> base,
                             OnlineLearnerConfig config)
    : base_(std::move(base)),
      config_(config),
      counts_(base_->config().vertex_features),
      index_(base_->config().knn) {
  if (config_.mu <= 0.0) config_.mu = base_->config().propagation.mu;
  if (config_.nu <= 0.0) config_.nu = base_->config().propagation.nu;
}

LearnStats OnlineLearner::learn(const std::vector<text::Sentence>& batch) {
  LearnStats stats;
  stats.sentences = batch.size();
  if (batch.empty()) {
    stats.converged = true;
    return stats;
  }

  obs::ScopedSpan span("learn.batch");
  span.attr("sentences", static_cast<std::uint64_t>(batch.size()));
  const std::size_t L = base_->labels().num_labels();
  const std::size_t n_before = counts_.vertex_count();

  // Pass over the batch: register trigram types and count their feature
  // cooccurrences (counts_ keeps per-vertex counts only for the vertices
  // this batch opens — their vectors are about to be built), and fold each
  // position's CRF posterior into its vertex's running sum.
  std::vector<graph::VertexId> touched_existing;
  crf::LinearChainCrf::Scratch scratch;
  features::EncodeScratch encode;
  for (const auto& sentence : batch) {
    if (sentence.size() == 0) continue;
    const crf::SentencePosteriors posterior =
        base_->posteriors_one(sentence, scratch, encode);
    const std::vector<graph::VertexId> row =
        counts_.add(sentence, base_->extractor());
    posterior_sum_.resize(counts_.vertex_count(), LabelDistribution(L));
    occurrences_.resize(counts_.vertex_count(), 0.0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const graph::VertexId v = row[i];
      if (v < n_before) touched_existing.push_back(v);
      for (std::size_t y = 0; y < L; ++y)
        posterior_sum_[v][y] += posterior.tag_marginals[i][y];
      occurrences_[v] += 1.0;
    }
  }
  const std::size_t n_vertices = counts_.vertex_count();
  stats.appended_vertices = n_vertices - n_before;

  // PPMI vectors of the new vertices against the accumulated counts, then
  // appended to the index.
  const graph::KnnIndex::AppendResult appended =
      index_.append(counts_.take_new_vectors());
  stats.patched_vertices = appended.patched.size();

  // Extend the propagation state. Every vertex is anchored (see header):
  // X_ref where the labelled data saw the trigram, the running posterior
  // average elsewhere.
  x_.resize(n_vertices, LabelDistribution(L));
  x_reference_.resize(n_vertices, LabelDistribution(L));
  is_labelled_.resize(n_vertices, true);
  hand_labelled_.resize(n_vertices, false);
  for (std::size_t v = n_before; v < n_vertices; ++v) {
    const auto* ref = base_->reference().find(counts_.trigram(v));
    if (ref != nullptr && ref->size() == L) {
      x_reference_[v] = *ref;
      hand_labelled_[v] = true;
    } else {
      for (std::size_t y = 0; y < L; ++y)
        x_reference_[v][y] = posterior_sum_[v][y] / occurrences_[v];
    }
    x_[v] = x_reference_[v];  // warm start at the anchor
  }

  // Existing unlabelled vertices whose running posterior average drifted:
  // their anchor (hence their equation) changed, so they seed too.
  std::sort(touched_existing.begin(), touched_existing.end());
  touched_existing.erase(
      std::unique(touched_existing.begin(), touched_existing.end()),
      touched_existing.end());
  std::vector<graph::VertexId> seeds;
  for (const graph::VertexId v : touched_existing) {
    if (hand_labelled_[v]) continue;
    LabelDistribution anchor(L);
    double drift = 0.0;
    for (std::size_t y = 0; y < L; ++y) {
      anchor[y] = posterior_sum_[v][y] / occurrences_[v];
      drift = std::max(drift, std::abs(anchor[y] - x_reference_[v][y]));
    }
    if (drift > config_.anchor_tolerance) {
      x_reference_[v] = anchor;
      seeds.push_back(v);
      ++stats.perturbed_vertices;
    }
  }
  for (std::size_t v = n_before; v < n_vertices; ++v)
    seeds.push_back(static_cast<graph::VertexId>(v));
  seeds.insert(seeds.end(), appended.patched.begin(), appended.patched.end());

  // Localized re-propagation from the batch's footprint.
  propagation::IncrementalPropagationConfig prop;
  prop.mu = config_.mu;
  prop.nu = config_.nu;
  prop.tolerance = config_.tolerance;
  prop.max_relaxations = config_.max_relaxations;
  // index_.transpose() is maintained incrementally across appends, so the
  // sweep's cost tracks the batch neighbourhood, not the corpus.
  const propagation::IncrementalPropagationResult result =
      propagation::propagate_incremental(index_.graph(), index_.transpose(),
                                         x_, x_reference_, is_labelled_, seeds,
                                         prop);
  stats.relaxations = result.relaxations;
  stats.active_vertices = result.active_vertices;
  stats.final_residual = result.final_residual;
  stats.converged = result.converged;

  rebuild_learned_table();

  obs::Registry& registry = obs::Registry::global();
  registry.counter("learn.batches").inc();
  registry.counter("learn.sentences").inc(stats.sentences);
  registry.counter("learn.vertices_appended").inc(stats.appended_vertices);
  registry.counter("learn.relaxations").inc(stats.relaxations);
  registry.gauge("learn.vertices").set(static_cast<double>(n_vertices));
  registry.gauge("learn.edges").set(static_cast<double>(edge_count()));
  registry.gauge("learn.residual").set(stats.final_residual);
  registry.gauge("learn.active_fraction")
      .set(n_vertices == 0 ? 0.0
                           : static_cast<double>(stats.active_vertices) /
                                 static_cast<double>(n_vertices));
  span.attr("appended", static_cast<std::uint64_t>(stats.appended_vertices));
  span.attr("patched", static_cast<std::uint64_t>(stats.patched_vertices));
  span.attr("relaxations", static_cast<std::uint64_t>(stats.relaxations));
  util::log_info("learn: ", batch.size(), " sentences, +",
                 stats.appended_vertices, " vertices (", n_vertices,
                 " total), ", stats.patched_vertices, " patched, ",
                 stats.relaxations, " relaxations, residual ",
                 stats.final_residual);
  return stats;
}

void OnlineLearner::rebuild_learned_table() {
  // The learned table carries the propagated distributions of every vertex
  // the labelled data never anchored — exactly the trigrams the base
  // model's blended decode has no corpus-level signal for.
  auto learned = std::make_shared<ReferenceDistributions>();
  for (std::size_t v = 0; v < counts_.vertex_count(); ++v)
    if (!hand_labelled_[v]) learned->set(counts_.trigram(v), x_[v]);
  learned_ = std::move(learned);
}

void OnlineLearner::save(std::ostream& out) const {
  out << "graphner-learner v1\n";
  out << "base " << std::hex << base_->fingerprint() << std::dec << '\n';
  out.precision(17);  // round-trip doubles exactly
  out << "config " << config_.mu << ' ' << config_.nu << ' '
      << config_.tolerance << ' ' << config_.anchor_tolerance << ' '
      << config_.max_relaxations << '\n';

  counts_.save(out);

  // Column count per vertex follows the base model's label inventory; the
  // loader re-derives it from the (fingerprint-checked) base model.
  const std::size_t L = base_->labels().num_labels();
  const std::size_t n = counts_.vertex_count();
  out << "state " << n << '\n';
  for (std::size_t v = 0; v < n; ++v) {
    out << (hand_labelled_[v] ? 1 : 0) << ' ' << occurrences_[v];
    for (std::size_t y = 0; y < L; ++y) out << ' ' << posterior_sum_[v][y];
    for (std::size_t y = 0; y < L; ++y) out << ' ' << x_[v][y];
    for (std::size_t y = 0; y < L; ++y) out << ' ' << x_reference_[v][y];
    out << '\n';
  }

  index_.save(out);
}

OnlineLearner OnlineLearner::load(std::istream& in,
                                  std::shared_ptr<const GraphNerModel> base) {
  std::string word;
  std::string version;
  if (!(in >> word >> version) || word != "graphner-learner" || version != "v1")
    throw std::runtime_error(
        "learner snapshot: bad header (expected `graphner-learner v1`)");
  std::uint64_t base_fingerprint = 0;
  if (!(in >> word >> std::hex >> base_fingerprint >> std::dec) ||
      word != "base")
    throw std::runtime_error("learner snapshot: malformed base line");
  if (base_fingerprint != base->fingerprint())
    throw std::runtime_error(
        "learner snapshot: base model fingerprint mismatch (snapshot was "
        "taken over a different model)");
  OnlineLearnerConfig config;
  if (!(in >> word >> config.mu >> config.nu >> config.tolerance >>
        config.anchor_tolerance >> config.max_relaxations) ||
      word != "config")
    throw std::runtime_error("learner snapshot: malformed config line");
  OnlineLearner learner(std::move(base), config);

  learner.counts_ =
      graph::PpmiCounts::load(in, learner.base_->config().vertex_features);
  const std::size_t n = learner.counts_.vertex_count();

  std::size_t n_state = 0;
  if (!(in >> word >> n_state) || word != "state" || n_state != n)
    throw std::runtime_error("learner snapshot: malformed state header");
  const std::size_t L = learner.base_->labels().num_labels();
  learner.posterior_sum_.assign(n, LabelDistribution(L));
  learner.occurrences_.resize(n);
  learner.x_.assign(n, LabelDistribution(L));
  learner.x_reference_.assign(n, LabelDistribution(L));
  learner.is_labelled_.assign(n, true);
  learner.hand_labelled_.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    int hand = 0;
    bool ok = static_cast<bool>(in >> hand >> learner.occurrences_[v]);
    for (std::size_t y = 0; ok && y < L; ++y)
      ok = static_cast<bool>(in >> learner.posterior_sum_[v][y]);
    for (std::size_t y = 0; ok && y < L; ++y)
      ok = static_cast<bool>(in >> learner.x_[v][y]);
    for (std::size_t y = 0; ok && y < L; ++y)
      ok = static_cast<bool>(in >> learner.x_reference_[v][y]);
    if (!ok)
      throw std::runtime_error("learner snapshot: malformed state of vertex " +
                               std::to_string(v));
    learner.hand_labelled_[v] = hand != 0;
  }

  learner.index_ = graph::KnnIndex::load(in);
  if (learner.index_.size() != n)
    throw std::runtime_error(
        "learner snapshot: index holds " + std::to_string(learner.index_.size()) +
        " vectors for " + std::to_string(n) + " vertices");

  learner.rebuild_learned_table();
  return learner;
}

std::shared_ptr<const GraphNerModel> OnlineLearner::snapshot_model() const {
  auto learned = learned_;
  if (!learned) learned = std::make_shared<const ReferenceDistributions>();
  return std::make_shared<const GraphNerModel>(
      base_->fork_with_learned(std::move(learned)));
}

}  // namespace graphner::core
