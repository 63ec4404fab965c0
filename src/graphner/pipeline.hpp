// The GraphNER pipeline (Algorithm 1).
//
//   TRAIN: train the base CRF on the labelled data and record the
//   reference label distributions of every labelled 3-gram.
//
//   TEST (transductive): extract CRF posteriors and transition
//   probabilities over labelled + unlabelled data, average posteriors per
//   3-gram vertex, propagate on the similarity graph, mix the propagated
//   distributions back into the CRF posteriors with coefficient alpha, and
//   Viterbi-decode the mixed beliefs.
//
// The trained model also answers pure-CRF queries so the baseline rows of
// every table come from the identical model instance.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/crf/belief_viterbi.hpp"
#include "src/crf/feature_index.hpp"
#include "src/crf/model.hpp"
#include "src/embeddings/brown.hpp"
#include "src/embeddings/word2vec.hpp"
#include "src/features/encoder.hpp"
#include "src/features/extractor.hpp"
#include "src/features/gazetteer.hpp"
#include "src/graph/graph_stats.hpp"
#include "src/graph/trigram.hpp"
#include "src/graphner/config.hpp"
#include "src/graphner/reference.hpp"
#include "src/text/sentence.hpp"

namespace graphner::core {

/// Wall-clock breakdown (Fig. 2 reports train+test cost of CRF vs GraphNER).
struct PipelineTimings {
  double crf_train_seconds = 0.0;
  double reference_seconds = 0.0;
  double crf_inference_seconds = 0.0;   ///< posteriors + baseline Viterbi
  double graph_construction_seconds = 0.0;
  double propagation_seconds = 0.0;
  double combine_decode_seconds = 0.0;

  [[nodiscard]] double baseline_total() const noexcept {
    return crf_train_seconds + crf_inference_seconds;
  }
  [[nodiscard]] double graphner_total() const noexcept {
    return baseline_total() + reference_seconds + graph_construction_seconds +
           propagation_seconds + combine_decode_seconds;
  }
};

struct GraphNerStats {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  double labelled_vertex_fraction = 0.0;
  double positive_vertex_fraction = 0.0;
  std::vector<double> propagation_loss;  ///< per iteration
};

class GraphNerModel {
 public:
  /// TRAIN procedure. `unlabelled_text` feeds the ChemDNER profile's Brown /
  /// word2vec training (ignored for the plain BANNER profile); pass the
  /// union of all raw text available (the paper trains embeddings on large
  /// unlabelled corpora).
  static GraphNerModel train(const std::vector<text::Sentence>& labelled,
                             const std::vector<text::Sentence>& unlabelled_text,
                             const GraphNerConfig& config);

  GraphNerModel(GraphNerModel&&) noexcept = default;
  GraphNerModel& operator=(GraphNerModel&&) noexcept = default;

  /// Default decode options (quantization, DESIGN.md §10) for every decode
  /// / posterior entry point below, including the pipeline's corpus-wide
  /// posterior passes. Forwards to the CRF (building quantized tables
  /// eagerly) and publishes the decode.config.quantized gauge. Configure
  /// before sharing the model across threads — not safe against concurrent
  /// decodes, like set_weights.
  void set_decode_options(const crf::DecodeOptions& options);
  [[nodiscard]] const crf::DecodeOptions& decode_options() const noexcept;

  /// Pure-CRF decode (the paper's baseline rows).
  [[nodiscard]] std::vector<std::vector<text::Tag>> decode_crf(
      const std::vector<text::Sentence>& sentences) const;

  /// Single-sentence pure-CRF decode for the serving runtime: const and
  /// safe to call concurrently from many threads over one shared model
  /// (feature extraction, index lookup and Viterbi only read immutable
  /// state). `scratch` and `encode` are per-caller warm buffers — a worker
  /// that reuses them decodes with zero per-sentence lattice allocation.
  [[nodiscard]] std::vector<text::Tag> decode_one(
      const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
      features::EncodeScratch& encode) const;
  /// Same, decoding under explicit options instead of the model default
  /// (per-request wire overrides in the serving runtime).
  [[nodiscard]] std::vector<text::Tag> decode_one(
      const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
      features::EncodeScratch& encode, const crf::DecodeOptions& options) const;

  /// Single-sentence GraphNER posterior-blend decode: CRF posteriors are
  /// mixed (coefficient alpha, as in Algorithm 1 line 8) with the model's
  /// reference distributions at every position whose 3-gram occurs in the
  /// labelled data, and the mix is decoded with belief Viterbi over the
  /// CRF's per-edge transition ratios. This is the inductive, graph-free
  /// approximation of the transductive TEST procedure — the corpus-level
  /// signal without a corpus in hand — and the quality tier the serving
  /// runtime degrades *from* under overload (plain decode_one is the
  /// fallback). Same thread-safety contract as decode_one.
  [[nodiscard]] std::vector<text::Tag> decode_one_blended(
      const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
      features::EncodeScratch& encode) const;
  [[nodiscard]] std::vector<text::Tag> decode_one_blended(
      const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
      features::EncodeScratch& encode, const crf::DecodeOptions& options) const;

  struct TestResult {
    std::vector<std::vector<text::Tag>> baseline_tags;  ///< pure CRF
    std::vector<std::vector<text::Tag>> graphner_tags;  ///< Algorithm 1
    PipelineTimings timings;
    GraphNerStats stats;
  };

  /// Everything in the TEST procedure that does not depend on the
  /// propagation hyper-parameters (alpha, mu, nu, #iterations): CRF
  /// posteriors + transition estimates + baseline decode, the 3-gram
  /// vertex set, the PPMI k-NN graph, the averaged initial distributions
  /// and the aligned reference distributions. Hyper-parameter sweeps
  /// (Table IV cross-validation) prepare once and finish many times.
  struct TestContext {
    graph::TrigramVertices vertices;
    graph::KnnGraph knn;
    std::vector<crf::SentencePosteriors> posteriors;  ///< train then test
    crf::TagTransitionMatrix transitions{};
    std::vector<propagation::LabelDistribution> x_initial;
    std::vector<propagation::LabelDistribution> x_reference;
    std::vector<bool> is_labelled;
    std::vector<std::vector<text::Tag>> baseline_tags;
    std::size_t labelled_sentence_count = 0;
    std::vector<std::size_t> test_lengths;
    PipelineTimings timings;
    std::size_t positive_vertices = 0;
  };

  /// `extra_unlabelled` (optional) joins the graph construction and the
  /// posterior averaging but is never decoded — the paper's future-work
  /// extension of feeding abundant unlabelled data into the graph.
  [[nodiscard]] TestContext prepare(
      const std::vector<text::Sentence>& labelled,
      const std::vector<text::Sentence>& test,
      const std::vector<text::Sentence>& extra_unlabelled = {}) const;

  /// Lines 7-9 of Algorithm 1 under explicit hyper-parameters.
  [[nodiscard]] TestResult finish(const TestContext& context,
                                  const propagation::PropagationConfig& propagation,
                                  double alpha) const;

  /// TEST procedure over the transductive split with the model's own
  /// configuration. `labelled` must be the training sentences (their
  /// posteriors join the vertex averages, and the graph is built over both
  /// sides, exactly as in the paper).
  [[nodiscard]] TestResult test(const std::vector<text::Sentence>& labelled,
                                const std::vector<text::Sentence>& test) const;

  /// Single-sentence CRF posteriors for external consumers (the online
  /// learner averages these per appended trigram vertex). Same thread-safety
  /// contract as decode_one.
  [[nodiscard]] crf::SentencePosteriors posteriors_one(
      const text::Sentence& sentence, crf::LinearChainCrf::Scratch& scratch,
      features::EncodeScratch& encode) const;

  /// Shallow fork carrying an online-learned distribution table: shares
  /// every trained member (CRF weights, feature index, extractor, reference
  /// table, any mmap mapping) with this model by reference count, swaps in
  /// `learned`, and recomputes the fingerprint so the serving tier's decode
  /// cache distinguishes the fork from its base. O(1) in model size — this
  /// is what makes #REPLICA learn's hot-swap cheap.
  [[nodiscard]] GraphNerModel fork_with_learned(
      std::shared_ptr<const ReferenceDistributions> learned) const;
  /// The online-learned table; nullptr on models that never learned.
  [[nodiscard]] const ReferenceDistributions* learned() const noexcept {
    return learned_.get();
  }

  [[nodiscard]] const GraphNerConfig& config() const noexcept { return config_; }
  /// The BIO label inventory this model decodes over (wire tag names, state
  /// space width, distribution sizes all derive from it).
  [[nodiscard]] const text::LabelSet& labels() const noexcept {
    return config_.labels;
  }
  [[nodiscard]] const ReferenceDistributions& reference() const noexcept {
    return *reference_;
  }
  /// The trained feature extractor (the online learner builds incremental
  /// PPMI vertex vectors with it; read-only and thread-safe like decode).
  [[nodiscard]] const features::FeatureExtractor& extractor() const noexcept {
    return *extractor_;
  }
  /// The terminology bank (nullptr unless gazetteer_features was set).
  [[nodiscard]] const features::Gazetteer* gazetteer() const noexcept {
    return gazetteer_.get();
  }
  [[nodiscard]] double train_seconds() const noexcept { return train_seconds_; }
  [[nodiscard]] std::size_t feature_count() const noexcept { return index_->size(); }

  /// Text model format version. v3 adds the "labels" block (the model's
  /// BIO label inventory) right after the config line; the same version
  /// number gates the mmap format's meta section.
  static constexpr int kTextFormatVersion = 3;

  /// Persist a trained model (text format) / restore it. A loaded model
  /// tags and runs Algorithm 1 exactly like the one that was saved. The
  /// serialization is canonical: equal models produce byte-identical
  /// output (every unordered table is written sorted).
  void save(std::ostream& out) const;
  static GraphNerModel load(std::istream& in);
  /// load() then set_decode_options(): quantized tables are built once at
  /// load time, before the model is shared with any worker.
  static GraphNerModel load(std::istream& in, const crf::DecodeOptions& options);

  /// save() to `path` crash-safely (tmp + fsync + rename): a crash
  /// mid-save leaves the previous complete file, never a torn one.
  void save_file(const std::string& path) const;
  static GraphNerModel load_file(const std::string& path);
  static GraphNerModel load_file(const std::string& path,
                                 const crf::DecodeOptions& options);

  // --- zero-copy mmap model format (DESIGN.md §11) ---

  /// Write the binary mmap format: a fixed header, a section table, and
  /// 64-byte-aligned fingerprinted sections ("meta" = the text metadata,
  /// "weights" = the raw weight doubles). Written crash-safely like
  /// save_file. A model saved this way round-trips byte-identically
  /// through the text format (save() output is unchanged).
  void save_mmap_file(const std::string& path) const;
  /// Map `path` read-only and build a model whose CRF weight table is a
  /// *view into the mapping* — no heap copy, so N replicas (threads or
  /// processes) mapping the same file share one page-cache copy of the
  /// weights, and cold-start skips parsing the dominant weight text.
  /// The mapping lives as long as the model. Throws std::runtime_error
  /// with distinct messages for truncation, bad magic, version or byte-
  /// order mismatch, misaligned or out-of-bounds sections, fingerprint
  /// mismatch and trailing garbage.
  static GraphNerModel load_mmap_file(const std::string& path);
  static GraphNerModel load_mmap_file(const std::string& path,
                                      const crf::DecodeOptions& options);
  /// Sniff the on-disk magic and dispatch to load_mmap_file or load_file.
  static GraphNerModel load_auto_file(const std::string& path);

  /// Identity of the decode-relevant parameters (FNV-1a over the weight
  /// table, parameter count and feature count): equal models agree across
  /// the text and mmap formats, different weights disagree. Cache keys in
  /// the serving tier carry this so a hot-swap can never serve stale tags.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  /// True when the CRF weight table is a borrowed view into an mmap'd
  /// model file (load_mmap_file) rather than heap storage.
  [[nodiscard]] bool weights_mapped() const noexcept;
  /// The mapped file region backing this model; {nullptr, 0} when the
  /// model was not mmap-loaded. Test/diagnostic introspection.
  [[nodiscard]] std::pair<const void*, std::size_t> mapped_region() const noexcept {
    return {map_base_, map_size_};
  }

 private:
  GraphNerModel() = default;

  /// The text sections shared by both formats: everything between the
  /// magic line and the weights (config .. feature names). load_head
  /// leaves the stream positioned at the "weights" token (text format) or
  /// the "reference" token (mmap meta section).
  void save_head(std::ostream& out) const;
  static void load_head(std::istream& in, GraphNerModel& model);
  /// Recompute fingerprint_ from the CRF weights + shape (call after the
  /// weights are final).
  void compute_fingerprint();

  GraphNerConfig config_{};
  // shared_ptrs keep the model movable while FeatureExtractor holds stable
  // pointers to the embedding resources — and let fork_with_learned share
  // every heavy immutable member (weights, index, extractor, reference)
  // with its base instead of copying them per learn batch.
  std::shared_ptr<embeddings::BrownClustering> brown_;
  std::shared_ptr<embeddings::EmbeddingClusters> embedding_clusters_;
  std::shared_ptr<features::Gazetteer> gazetteer_;
  std::shared_ptr<features::FeatureExtractor> extractor_;
  std::shared_ptr<crf::FeatureIndex> index_;
  std::shared_ptr<crf::LinearChainCrf> crf_;
  std::shared_ptr<ReferenceDistributions> reference_;
  /// Online-learned distributions (propagated, not hand-labelled), consulted
  /// by decode_one_blended when reference_ misses. In-memory serving state:
  /// save()/save_mmap_file persist the base model only, so the text format
  /// is unchanged. Never mutated after the fork is built — swaps replace
  /// the whole model.
  std::shared_ptr<const ReferenceDistributions> learned_;
  double train_seconds_ = 0.0;
  double reference_seconds_ = 0.0;
  std::uint64_t fingerprint_ = 0;
  // mmap-loaded models keep their file mapping alive here (the deleter
  // munmaps); the CRF weight span points into [map_base_, map_base_ + map_size_).
  std::shared_ptr<void> mapping_;
  const void* map_base_ = nullptr;
  std::size_t map_size_ = 0;
};

}  // namespace graphner::core
