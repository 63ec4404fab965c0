// Online learning: absorb new unlabelled text into a served model.
//
// The serving-tier analogue of the transductive TEST procedure, run
// incrementally (DESIGN.md §12). The learner owns the corpus-level state a
// batch pipeline throws away after every run — the trigram registry and
// PPMI cooccurrence counts (graph::PpmiCounts, the same counter the batch
// graph build uses), the k-NN posting index (graph::KnnIndex) and the
// propagated label distributions — so absorbing a batch of sentences costs
// work proportional to the batch's neighbourhood, not to the corpus:
//
//   1. new trigram types become vertices; PpmiCounts::take_new_vectors()
//      builds their PPMI vectors from the *accumulated* cooccurrence
//      counts and they are appended to the index (exact forward edges +
//      reverse patches);
//   2. every vertex is anchored: hand-labelled trigrams by the model's
//      X_ref, the rest by their running averaged CRF posterior — the
//      incremental analogue of Algorithm 1 line 6, moved into the
//      objective so the fixed point (a) is unique and (b) carries the
//      corpus-level CRF signal;
//   3. propagate_incremental relaxes outward from the appended vertices,
//      the reverse-patched vertices, and any vertex whose posterior
//      anchor drifted — localized re-propagation instead of a full sweep;
//   4. snapshot_model() forks the base model with the propagated
//      distributions as a learned lookup table (O(1) in model size); the
//      router hot-swaps the fork and the new fingerprint invalidates the
//      decode cache.
//
// Documented approximation: a vertex's PPMI vector is frozen at the counts
// of the batch that first saw it — take_new_vectors() closes the vertex,
// so later occurrences update global feature counts and the vertex's
// posterior anchor, not its vector. That is the standard incremental-index
// trade; the bench gates its accuracy cost. A single learn() over a batch
// yields exactly the vectors graph::build_vertices gives for that batch.
#pragma once

#include <memory>
#include <vector>

#include "src/graph/knn_index.hpp"
#include "src/graph/vertex_features.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/propagation/propagation.hpp"
#include "src/text/sentence.hpp"

namespace graphner::core {

struct OnlineLearnerConfig {
  /// Propagation weights; <= 0 inherits the base model's configured value.
  double mu = -1.0;
  double nu = -1.0;
  /// Residual tolerance for localized re-propagation.
  double tolerance = 1e-6;
  /// Sup-norm drift of a running posterior anchor that re-seeds its vertex.
  double anchor_tolerance = 1e-6;
  std::size_t max_relaxations = 0;  ///< 0 = propagate_incremental default
};

/// Per-learn-call outcome (also mirrored into the learn.* metrics).
struct LearnStats {
  std::size_t sentences = 0;
  std::size_t appended_vertices = 0;   ///< new trigram types this batch
  std::size_t patched_vertices = 0;    ///< old vertices with new edges
  std::size_t perturbed_vertices = 0;  ///< anchors drifted past tolerance
  std::size_t relaxations = 0;
  std::size_t active_vertices = 0;
  double final_residual = 0.0;
  bool converged = false;
};

class OnlineLearner {
 public:
  explicit OnlineLearner(std::shared_ptr<const GraphNerModel> base,
                         OnlineLearnerConfig config = {});

  /// Absorb a batch of (untagged) sentences: append vertices, re-propagate
  /// locally, refresh the learned table. Not thread-safe — serialize calls
  /// (the router holds a learn mutex).
  LearnStats learn(const std::vector<text::Sentence>& batch);

  /// Fork of the base model carrying the current learned table; safe to
  /// hot-swap into serving replicas. Distinct fingerprint per distinct
  /// learned content.
  [[nodiscard]] std::shared_ptr<const GraphNerModel> snapshot_model() const;

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return counts_.vertex_count();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return index_.graph().edge_count();
  }
  [[nodiscard]] const std::vector<propagation::LabelDistribution>&
  distributions() const noexcept {
    return x_;
  }
  /// Per-vertex anchors (X_ref or running posterior average) and the
  /// all-true labelled mask — the exact inputs the learner propagates
  /// under, exposed so benches/tests can verify the fixed point.
  [[nodiscard]] const std::vector<propagation::LabelDistribution>& anchors()
      const noexcept {
    return x_reference_;
  }
  [[nodiscard]] const std::vector<bool>& labelled_mask() const noexcept {
    return is_labelled_;
  }
  [[nodiscard]] const graph::KnnIndex& index() const noexcept { return index_; }
  [[nodiscard]] const GraphNerModel& base() const noexcept { return *base_; }

  /// Full-state text serialization (DESIGN.md §13): trigram registry and
  /// PPMI cooccurrence counts (graph::PpmiCounts::save), per-vertex
  /// propagation state and the embedded k-NN index (vectors, edges and the
  /// transpose lists verbatim — their within-list order drives relaxation
  /// order, hence floating-point summation order, and must survive a
  /// restart bit-for-bit). Doubles are
  /// written at precision 17 and floats at 10, which round-trips exactly,
  /// so a load()ed learner that absorbs the same batches as the original
  /// reaches bit-identical state — the property WAL replay relies on.
  void save(std::ostream& out) const;
  /// Restore a save()d learner over `base`. The snapshot's resolved config
  /// is restored too (it participated in the propagation the snapshot
  /// captured). Rejects, with distinct messages, a snapshot taken over a
  /// different base model (fingerprint mismatch) and each malformed
  /// section.
  [[nodiscard]] static OnlineLearner load(
      std::istream& in, std::shared_ptr<const GraphNerModel> base);

 private:
  void rebuild_learned_table();

  std::shared_ptr<const GraphNerModel> base_;
  OnlineLearnerConfig config_;
  // Trigram registry and accumulated PPMI cooccurrence statistics, kept
  // alive across batches (vertex ids are dense, append-only).
  graph::PpmiCounts counts_;
  graph::KnnIndex index_;

  // Per-vertex propagation state. is_labelled is implicitly all-true (see
  // header comment); hand_labelled_ marks vertices anchored by X_ref.
  std::vector<propagation::LabelDistribution> posterior_sum_;
  std::vector<double> occurrences_;
  std::vector<propagation::LabelDistribution> x_;
  std::vector<propagation::LabelDistribution> x_reference_;
  std::vector<bool> is_labelled_;
  std::vector<bool> hand_labelled_;

  std::shared_ptr<const ReferenceDistributions> learned_;
};

}  // namespace graphner::core
