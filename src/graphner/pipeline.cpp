#include "src/graphner/pipeline.hpp"

#include <cassert>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/crf/trainer.hpp"
#include "src/features/encoder.hpp"
#include "src/graph/vertex_features.hpp"
#include "src/graphner/checkpoint.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/span.hpp"
#include "src/util/logging.hpp"
#include "src/util/math.hpp"
#include "src/util/parallel.hpp"

namespace graphner::core {

using propagation::LabelDistribution;
using text::kNumTags;

namespace {

[[nodiscard]] crf::StateSpace make_space(int order, const text::LabelSet& labels) {
  return order == 2 ? crf::StateSpace::order2(labels)
                    : crf::StateSpace::order1(labels);
}

[[nodiscard]] features::FeatureConfig make_feature_config(
    CrfProfile profile, const embeddings::BrownClustering* brown,
    const embeddings::EmbeddingClusters* clusters,
    const features::Gazetteer* gazetteer) {
  features::FeatureConfig config;
  if (profile == CrfProfile::kBannerChemDner) {
    config.brown = brown;
    config.embedding_clusters = clusters;
  }
  config.gazetteer = gazetteer;
  return config;
}

// Position-specific transition scores: the pairwise/marginal ratio of the
// CRF at each edge (the exact tree reparameterization at order 1). A single
// corpus-level matrix misprices rare transitions (it rewards B -> I between
// two adjacent single-token mentions), hence per-edge. The ratio is
// clamped: where the CRF is near-certain the raw ratio explodes to
// ~1/marginal, and mixed beliefs could ride that bonus along a path the
// CRF itself rules out. Within the clamp the node beliefs stay in charge,
// which is the point of Algorithm 1 line 8.
[[nodiscard]] std::vector<crf::TagTransitionMatrix> clamped_edge_ratios(
    const crf::SentencePosteriors& posterior, std::size_t length) {
  constexpr double kMaxRatio = 5.0;
  const std::size_t L =
      length > 0 ? posterior.tag_marginals[0].size() : std::size_t{kNumTags};
  std::vector<crf::TagTransitionMatrix> edge_ratios(
      length, crf::TagTransitionMatrix(L));
  edge_ratios[0].fill(1.0);
  for (std::size_t i = 1; i < length; ++i) {
    for (std::size_t a = 0; a < L; ++a) {
      for (std::size_t b = 0; b < L; ++b) {
        const double denom =
            posterior.tag_marginals[i - 1][a] * posterior.tag_marginals[i][b];
        const double ratio =
            denom > 1e-12 ? posterior.pairwise_marginals[i].at(a, b) / denom
                          : 0.0;
        edge_ratios[i].at(a, b) = util::clamp(ratio, 1.0 / kMaxRatio, kMaxRatio);
      }
    }
  }
  return edge_ratios;
}

}  // namespace

GraphNerModel GraphNerModel::train(const std::vector<text::Sentence>& labelled,
                                   const std::vector<text::Sentence>& unlabelled_text,
                                   const GraphNerConfig& config) {
  GraphNerModel model;
  model.config_ = config;

  // Every phase below times itself with a "train.<phase>" trace span
  // (phases restored from a checkpoint open no span).
  obs::ScopedSpan train_span("train");

  // Crash-safe phase checkpoints (no-op when checkpoint_dir is empty):
  // every completed phase is restored instead of recomputed, and every
  // serialization involved is canonical, so a resumed run's final model is
  // byte-identical to an uninterrupted one's.
  TrainCheckpoint checkpoint;
  if (!config.checkpoint_dir.empty())
    checkpoint = TrainCheckpoint::open(
        config.checkpoint_dir,
        training_fingerprint(config, labelled, unlabelled_text));

  // Semi-supervised feature resources (ChemDNER profile only).
  if (config.profile == CrfProfile::kBannerChemDner) {
    std::vector<text::Sentence> embedding_text = labelled;
    embedding_text.insert(embedding_text.end(), unlabelled_text.begin(),
                          unlabelled_text.end());

    if (!checkpoint.restore("brown", [&](std::istream& in) {
          model.brown_ = std::make_shared<embeddings::BrownClustering>(
              embeddings::BrownClustering::load(in));
        })) {
      embeddings::BrownConfig brown_config;
      brown_config.num_clusters = config.brown_clusters;
      obs::ScopedSpan span("train.brown");
      span.attr("sentences", static_cast<std::uint64_t>(embedding_text.size()));
      model.brown_ = std::make_shared<embeddings::BrownClustering>(
          embeddings::BrownClustering::train(embedding_text, brown_config));
      span.close();
      checkpoint.commit("brown",
                        [&](std::ostream& out) { model.brown_->save(out); });
    }

    // One phase for word2vec + k-means: the durable product is the cluster
    // table; the SGD trajectory itself is never needed again.
    if (!checkpoint.restore("word2vec", [&](std::istream& in) {
          model.embedding_clusters_ =
              std::make_shared<embeddings::EmbeddingClusters>(
                  embeddings::EmbeddingClusters::load(in));
        })) {
      embeddings::Word2VecConfig w2v_config;
      w2v_config.seed = config.embedding_seed;
      w2v_config.threads = config.embedding_threads;
      obs::ScopedSpan w2v_span("train.word2vec");
      const auto w2v = embeddings::Word2Vec::train(embedding_text, w2v_config);
      w2v_span.close();
      obs::ScopedSpan kmeans_span("train.kmeans");
      model.embedding_clusters_ = std::make_shared<embeddings::EmbeddingClusters>(
          embeddings::cluster_embeddings(w2v, config.embedding_kmeans_clusters,
                                         config.embedding_seed + 1));
      kmeans_span.close();
      checkpoint.commit("word2vec", [&](std::ostream& out) {
        model.embedding_clusters_->save(out);
      });
    }
  }
  // Terminology bank harvested from the labelled mentions (cheap enough to
  // rebuild on every run — no checkpoint phase).
  if (config.gazetteer_features)
    model.gazetteer_ = std::make_shared<features::Gazetteer>(
        features::Gazetteer::from_labelled(labelled, config.labels));
  model.extractor_ = std::make_shared<features::FeatureExtractor>(make_feature_config(
      config.profile, model.brown_.get(), model.embedding_clusters_.get(),
      model.gazetteer_.get()));

  // CRF_train(D_l)  — Algorithm 1, line 2. The umbrella span covers
  // encode + optimization (and the checkpoint restore/commit around them);
  // its children "train.encode" / "train.crf" carry the phase splits.
  obs::ScopedSpan crf_total_span("train.crf_total");
  const crf::StateSpace space = make_space(config.crf_order, config.labels);
  model.index_ = std::make_shared<crf::FeatureIndex>();
  // The encode artifact is the frozen feature-name table in id order.
  // Interning the names restores identical ids; together with the crf
  // artifact it reproduces the trained CRF without touching the corpus.
  const bool have_encode = checkpoint.restore("encode", [&](std::istream& in) {
    std::size_t count = 0;
    in >> count;
    std::string name;
    for (std::size_t i = 0; i < count; ++i) {
      if (!(in >> name))
        throw std::runtime_error("checkpoint: truncated encode artifact");
      model.index_->intern(name);
    }
  });

  bool restored_crf = false;
  if (have_encode && checkpoint.completed("crf")) {
    restored_crf = checkpoint.restore("crf", [&](std::istream& in) {
      model.index_->freeze();
      model.crf_ =
          std::make_shared<crf::LinearChainCrf>(space, model.index_->size());
      std::size_t count = 0;
      in >> count;
      if (count != model.crf_->num_parameters())
        throw std::runtime_error("checkpoint: crf artifact weight count " +
                                 std::to_string(count) + " != " +
                                 std::to_string(model.crf_->num_parameters()));
      std::vector<double> weights(count);
      for (auto& w : weights)
        if (!(in >> w))
          throw std::runtime_error("checkpoint: truncated crf artifact");
      model.crf_->set_weights(weights);
    });
  }
  if (!restored_crf) {
    // Re-encoding against a restored (still unfrozen) index is a pure
    // lookup: the fingerprint pins the corpus, so no new names appear.
    obs::ScopedSpan encode_span("train.encode");
    const crf::Batch batch = features::encode_batch_for_training(
        labelled, *model.extractor_, *model.index_, space);
    model.index_->freeze();
    encode_span.attr("features", static_cast<std::uint64_t>(model.index_->size()));
    encode_span.close();
    if (!have_encode)
      checkpoint.commit("encode", [&](std::ostream& out) {
        out << model.index_->size() << '\n';
        for (crf::FeatureIndex::Id id = 0; id < model.index_->size(); ++id)
          out << model.index_->name(id) << '\n';
      });
    model.crf_ =
        std::make_shared<crf::LinearChainCrf>(space, model.index_->size());
    {
      obs::ScopedSpan crf_span("train.crf");
      train_crf(*model.crf_, batch, config.train);
    }
    checkpoint.commit("crf", [&](std::ostream& out) {
      const auto weights = model.crf_->weights();
      out.precision(17);
      out << weights.size() << '\n';
      for (std::size_t i = 0; i < weights.size(); ++i)
        out << weights[i] << ((i + 1) % 8 == 0 ? '\n' : ' ');
      out << '\n';
    });
  }
  model.train_seconds_ = crf_total_span.close();

  // Set_ReferenceDistributions(D_l)  — Algorithm 1, line 3.
  {
    obs::ScopedSpan ref_span("train.reference");
    model.reference_ = std::make_shared<ReferenceDistributions>(
        ReferenceDistributions::build(labelled, config.labels));
    model.reference_seconds_ = ref_span.close();
  }

  train_span.attr("features", static_cast<std::uint64_t>(model.index_->size()));
  train_span.attr("reference_trigrams",
                  static_cast<std::uint64_t>(model.reference_->size()));
  train_span.close();
  obs::Registry::global().counter("train.runs").inc();
  obs::Registry::global().gauge("train.features").set(
      static_cast<double>(model.index_->size()));

  model.compute_fingerprint();
  util::log_info("graphner: trained ", profile_name(config.profile), " order-",
                 config.crf_order, " CRF, ", model.index_->size(), " features, ",
                 model.reference_->size(), " reference trigrams");
  return model;
}

void GraphNerModel::set_decode_options(const crf::DecodeOptions& options) {
  crf_->set_decode_options(options);
  // Mirror the active configuration into a gauge so a #METRICS scrape (or
  // the tool's --metrics-json dump) always shows what decodes are running
  // under.
  obs::Registry::global()
      .gauge("decode.config.quantized")
      .set(static_cast<double>(options.quantization));
}

const crf::DecodeOptions& GraphNerModel::decode_options() const noexcept {
  return crf_->decode_options();
}

std::vector<std::vector<text::Tag>> GraphNerModel::decode_crf(
    const std::vector<text::Sentence>& sentences) const {
  std::vector<std::vector<text::Tag>> out(sentences.size());
  util::parallel_for_chunked(0, sentences.size(), [&](std::size_t lo, std::size_t hi) {
    crf::LinearChainCrf::Scratch scratch;  // reused across the worker's chunk
    features::EncodeScratch encode;
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = decode_one(sentences[i], scratch, encode);
  });
  return out;
}

std::vector<text::Tag> GraphNerModel::decode_one(
    const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
    features::EncodeScratch& encode) const {
  return decode_one(sentence, scratch, encode, crf_->decode_options());
}

std::vector<text::Tag> GraphNerModel::decode_one(
    const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
    features::EncodeScratch& encode, const crf::DecodeOptions& options) const {
  if (sentence.size() == 0) return {};
  const crf::EncodedSentence& encoded =
      features::encode_for_inference(sentence, *extractor_, *index_, encode);
  return crf_->viterbi(encoded, scratch, options);
}

std::vector<text::Tag> GraphNerModel::decode_one_blended(
    const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
    features::EncodeScratch& encode) const {
  return decode_one_blended(sentence, scratch, encode, crf_->decode_options());
}

std::vector<text::Tag> GraphNerModel::decode_one_blended(
    const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
    features::EncodeScratch& encode, const crf::DecodeOptions& options) const {
  const std::size_t length = sentence.size();
  if (length == 0) return {};
  const crf::EncodedSentence& encoded =
      features::encode_for_inference(sentence, *extractor_, *index_, encode);
  const crf::SentencePosteriors posterior =
      crf_->posteriors(encoded, scratch, options);

  // Algorithm 1 line 8 with X_ref in place of the propagated distributions:
  // positions whose 3-gram was seen labelled get the corpus-level anchor,
  // the rest keep the pure CRF posterior.
  const std::size_t L = config_.labels.num_labels();
  std::vector<text::LabelDist> beliefs(length, text::LabelDist(L));
  for (std::size_t i = 0; i < length; ++i) {
    const auto trigram = graph::trigram_at(sentence, i);
    // Hand-labelled reference first; the online-learned (propagated) table
    // only fills trigrams the labelled data never anchored.
    const auto* ref = reference_->find(trigram);
    if (!ref && learned_) ref = learned_->find(trigram);
    const bool usable = ref != nullptr && ref->size() == L;
    for (std::size_t y = 0; y < L; ++y) {
      beliefs[i][y] = usable ? config_.alpha * posterior.tag_marginals[i][y] +
                                   (1.0 - config_.alpha) * (*ref)[y]
                             : posterior.tag_marginals[i][y];
    }
    util::normalize_inplace(beliefs[i]);
  }
  return crf::belief_viterbi(beliefs, clamped_edge_ratios(posterior, length),
                             config_.labels);
}

crf::SentencePosteriors GraphNerModel::posteriors_one(
    const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
    features::EncodeScratch& encode) const {
  const crf::EncodedSentence& encoded =
      features::encode_for_inference(sentence, *extractor_, *index_, encode);
  return crf_->posteriors(encoded, scratch);
}

GraphNerModel GraphNerModel::fork_with_learned(
    std::shared_ptr<const ReferenceDistributions> learned) const {
  GraphNerModel fork;
  fork.config_ = config_;
  fork.brown_ = brown_;
  fork.embedding_clusters_ = embedding_clusters_;
  fork.gazetteer_ = gazetteer_;
  fork.extractor_ = extractor_;
  fork.index_ = index_;
  fork.crf_ = crf_;
  fork.reference_ = reference_;
  fork.learned_ = std::move(learned);
  fork.train_seconds_ = train_seconds_;
  fork.reference_seconds_ = reference_seconds_;
  // Keep any mmap mapping alive for as long as the fork serves from it.
  fork.mapping_ = mapping_;
  fork.map_base_ = map_base_;
  fork.map_size_ = map_size_;
  fork.compute_fingerprint();
  return fork;
}

GraphNerModel::TestContext GraphNerModel::prepare(
    const std::vector<text::Sentence>& labelled,
    const std::vector<text::Sentence>& test,
    const std::vector<text::Sentence>& extra_unlabelled) const {
  TestContext context;
  context.labelled_sentence_count = labelled.size();
  context.test_lengths.reserve(test.size());
  for (const auto& s : test) context.test_lengths.push_back(s.size());
  context.timings.crf_train_seconds = train_seconds_;
  context.timings.reference_seconds = reference_seconds_;

  // Sentence view: labelled, then test, then extra unlabelled — vertex
  // extraction below follows the same order. Only the `test` block is
  // decoded; everything contributes vertices and averaged posteriors.
  std::vector<text::Sentence> unlabelled_side = test;
  unlabelled_side.insert(unlabelled_side.end(), extra_unlabelled.begin(),
                         extra_unlabelled.end());
  std::vector<const text::Sentence*> all;
  all.reserve(labelled.size() + unlabelled_side.size());
  for (const auto& s : labelled) all.push_back(&s);
  for (const auto& s : unlabelled_side) all.push_back(&s);

  // ---- Line 5: CRF posteriors and transition probabilities over D_l u D_u.
  obs::ScopedSpan inference_span("test.crf_inference");
  inference_span.attr("sentences", static_cast<std::uint64_t>(all.size()));
  context.posteriors.resize(all.size());
  context.baseline_tags.assign(test.size(), {});

  const std::size_t L = config_.labels.num_labels();
  struct InferenceAcc {
    crf::TagTransitionMatrix counts{};
    crf::LinearChainCrf::Scratch scratch;    // per-worker reusable lattice
    features::EncodeScratch encode;          // per-worker encode buffers
  };
  InferenceAcc init;
  init.counts = crf::TagTransitionMatrix(L);
  const InferenceAcc acc = util::parallel_reduce(
      std::size_t{0}, all.size(), std::move(init),
      [&](InferenceAcc& local, std::size_t i) {
        if (all[i]->size() == 0) return;
        const crf::EncodedSentence& encoded = features::encode_for_inference(
            *all[i], *extractor_, *index_, local.encode);
        context.posteriors[i] = crf_->posteriors(encoded, local.scratch);
        // The pairwise tag marginals are the per-edge transition
        // expectations, so summing them gives the expected bigram counts
        // without a second forward-backward pass.
        for (std::size_t p = 1; p < context.posteriors[i].pairwise_marginals.size(); ++p)
          for (std::size_t j = 0; j < local.counts.size(); ++j)
            local.counts[j] += context.posteriors[i].pairwise_marginals[p][j];
        if (i >= labelled.size() && i < labelled.size() + test.size())
          context.baseline_tags[i - labelled.size()] =
              crf_->viterbi(encoded, local.scratch);
      },
      [](InferenceAcc& lhs, const InferenceAcc& rhs) {
        for (std::size_t j = 0; j < lhs.counts.size(); ++j)
          lhs.counts[j] += rhs.counts[j];
      });
  context.transitions = crf::transition_ratio_matrix(acc.counts);
  context.timings.crf_inference_seconds = inference_span.close();

  // ---- Graph construction (vertices over D_l u D_u + PPMI k-NN graph).
  obs::ScopedSpan graph_span("test.graph_construction");
  graph::VertexBuild build =
      graph::build_vertices(all, *extractor_, config_.vertex_features);
  context.vertices = std::move(build.vertices);
  // Moved in: the one-shot build would otherwise hold a second full copy
  // of the PPMI vectors inside the scoring index.
  context.knn = graph::build_knn_graph(std::move(build.vectors), config_.knn);
  context.timings.graph_construction_seconds = graph_span.close();

  // ---- Line 6: X <- Average(P_s, V).
  const std::size_t num_vertices = context.vertices.vertex_count();
  context.x_initial.assign(num_vertices, LabelDistribution(L));
  std::vector<double> occurrence_count(num_vertices, 0.0);
  for (std::size_t s = 0; s < all.size(); ++s) {
    for (std::size_t i = 0; i < all[s]->size(); ++i) {
      const graph::VertexId v = context.vertices.positions[s][i];
      for (std::size_t y = 0; y < L; ++y)
        context.x_initial[v][y] += context.posteriors[s].tag_marginals[i][y];
      occurrence_count[v] += 1.0;
    }
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    if (occurrence_count[v] > 0.0)
      for (auto& p : context.x_initial[v]) p /= occurrence_count[v];
    else
      context.x_initial[v] = propagation::uniform_distribution(L);
  }

  // Reference distributions aligned with the vertex set (V_l membership).
  context.x_reference.assign(num_vertices, LabelDistribution(L));
  context.is_labelled.assign(num_vertices, false);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    const auto* ref = reference_->find(context.vertices.trigrams[v]);
    if (ref && ref->size() == L) {
      context.x_reference[v] = *ref;
      context.is_labelled[v] = true;
      // O is the last label; everything before it is positive mass.
      double positive = 0.0;
      for (std::size_t y = 0; y + 1 < L; ++y) positive += (*ref)[y];
      if (positive > (*ref)[L - 1]) ++context.positive_vertices;
    }
  }
  return context;
}

GraphNerModel::TestResult GraphNerModel::finish(
    const TestContext& context, const propagation::PropagationConfig& prop_config,
    double alpha) const {
  TestResult result;
  result.baseline_tags = context.baseline_tags;
  result.timings = context.timings;

  // ---- Line 7: X <- Propagate(X, X_ref, mu, nu, #iterations).
  obs::ScopedSpan prop_span("test.propagation");
  const propagation::PropagationResult propagated =
      propagation::propagate(context.knn, context.x_initial, context.x_reference,
                             context.is_labelled, prop_config);
  result.timings.propagation_seconds = prop_span.close();

  // ---- Lines 8-9: combine and decode.
  obs::ScopedSpan combine_span("test.combine_decode");
  const std::size_t num_test = context.test_lengths.size();
  result.graphner_tags.assign(num_test, {});
  util::parallel_for(0, num_test, [&](std::size_t t) {
    const std::size_t length = context.test_lengths[t];
    if (length == 0) return;
    const std::size_t s = context.labelled_sentence_count + t;
    const crf::SentencePosteriors& posterior = context.posteriors[s];
    const std::size_t L = config_.labels.num_labels();
    std::vector<text::LabelDist> beliefs(length, text::LabelDist(L));
    for (std::size_t i = 0; i < length; ++i) {
      const graph::VertexId v = context.vertices.positions[s][i];
      for (std::size_t y = 0; y < L; ++y) {
        beliefs[i][y] = alpha * posterior.tag_marginals[i][y] +
                        (1.0 - alpha) * propagated.distributions[v][y];
      }
      util::normalize_inplace(beliefs[i]);
    }
    result.graphner_tags[t] = crf::belief_viterbi(
        beliefs, clamped_edge_ratios(posterior, length), config_.labels);
  });
  result.timings.combine_decode_seconds = combine_span.close();

  // Stats for §III-D style reporting.
  const std::size_t num_vertices = context.vertices.vertex_count();
  result.stats.vertices = num_vertices;
  result.stats.edges = context.knn.edge_count();
  std::size_t labelled_count = 0;
  for (const bool b : context.is_labelled) labelled_count += b ? 1 : 0;
  result.stats.labelled_vertex_fraction =
      num_vertices == 0 ? 0.0
                        : static_cast<double>(labelled_count) /
                              static_cast<double>(num_vertices);
  result.stats.positive_vertex_fraction =
      num_vertices == 0 ? 0.0
                        : static_cast<double>(context.positive_vertices) /
                              static_cast<double>(num_vertices);
  result.stats.propagation_loss = propagated.loss_per_iteration;
  return result;
}

GraphNerModel::TestResult GraphNerModel::test(
    const std::vector<text::Sentence>& labelled,
    const std::vector<text::Sentence>& test) const {
  const TestContext context = prepare(labelled, test);
  return finish(context, config_.propagation, config_.alpha);
}

}  // namespace graphner::core
