// Vertex representations: PPMI feature vectors for 3-gram vertices.
//
// A vertex is represented by the pointwise mutual information between its
// 3-gram and the feature instances observed at the 3-gram's occurrences
// (paper §II-C). Three representations, matching Table III:
//   * kAllFeatures — every BANNER feature of the center token,
//   * kLexical     — lemmas in a window of length 5 around the center,
//   * kMiSelected  — BANNER features whose tag MI exceeds a threshold.
// Vectors use positive PMI and are L2-normalized so that k-NN dot products
// equal cosine similarities.
// The batch build (build_vertices) and the online learner count through
// one PpmiCounts, so the two builds cannot drift apart (DESIGN.md §12).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/features/extractor.hpp"
#include "src/graph/sparse_vector.hpp"
#include "src/graph/trigram.hpp"
#include "src/text/sentence.hpp"

namespace graphner::graph {

enum class VertexRepresentation { kAllFeatures, kLexical, kMiSelected };

[[nodiscard]] std::string representation_name(VertexRepresentation rep);

struct VertexFeatureConfig {
  VertexRepresentation representation = VertexRepresentation::kAllFeatures;
  /// Feature names kept when representation == kMiSelected.
  std::unordered_set<std::string> selected_features;
  /// Features occurring at more than this fraction of token positions are
  /// dropped before building vectors (they carry no discriminative signal
  /// and would blow up the k-NN inverted index).
  double max_document_frequency = 0.2;
};

/// The feature names contributing to the vertex at `position` of `sentence`
/// under `config` — the single-position unit PpmiCounts counts.
[[nodiscard]] std::vector<std::string> vertex_features_at(
    const text::Sentence& sentence, std::size_t position,
    const features::FeatureExtractor& extractor, const VertexFeatureConfig& config);

/// One batch build: the vertex set and one PPMI vector per vertex.
struct VertexBuild {
  TrigramVertices vertices;
  std::vector<SparseVector> vectors;  ///< one per vertex, unit L2 norm
  std::size_t feature_instance_count = 0;
};

/// Build the vertex set and PPMI vectors over `sentences` (labelled, then
/// unlabelled): one PpmiCounts::add pass, then one take_new_vectors().
[[nodiscard]] VertexBuild build_vertices(const std::vector<const text::Sentence*>& sentences,
                                         const features::FeatureExtractor& extractor,
                                         const VertexFeatureConfig& config);

/// The trigram registry, feature interning (dense ids, first-seen order),
/// global feature counts and the one PPMI formula. Per-vertex counts are
/// kept only while a vertex is *open*: from the add() that first sees its
/// trigram until the next take_new_vectors(). A closed vertex's later
/// occurrences move the global counts but never its own vector — the
/// learner's "frozen at first sight" approximation, exact for a batch build.
class PpmiCounts {
 public:
  explicit PpmiCounts(VertexFeatureConfig config) : config_(std::move(config)) {}

  /// Count the features at each position of `sentence` and return each
  /// position's vertex id; ids >= the pre-call vertex_count() are new.
  std::vector<VertexId> add(const text::Sentence& sentence,
                            const features::FeatureExtractor& extractor);

  /// Unit-L2 positive-PMI vectors of the open vertices in id order, against
  /// the current global counts; closes them.
  [[nodiscard]] std::vector<SparseVector> take_new_vectors();

  [[nodiscard]] std::size_t vertex_count() const noexcept { return trigrams_.size(); }
  [[nodiscard]] const std::array<std::string, 3>& trigram(VertexId v) const {
    return trigrams_[v];
  }

  /// The `vertices` and `features` sections of a learner snapshot (DESIGN.md
  /// §13). Open vertices' per-vertex counts are not written.
  void save(std::ostream& out) const;
  /// Restore save()d sections, every vertex closed; malformed input throws
  /// a distinct `learner snapshot: …` message.
  [[nodiscard]] static PpmiCounts load(std::istream& in, VertexFeatureConfig config);

 private:
  friend VertexBuild build_vertices(const std::vector<const text::Sentence*>&,
                                    const features::FeatureExtractor&,
                                    const VertexFeatureConfig&);

  struct OpenVertex {
    std::uint64_t occurrences = 0;
    std::unordered_map<std::uint32_t, std::uint32_t> counts;  ///< feature -> c(v, f)
  };

  VertexFeatureConfig config_;
  std::unordered_map<std::string, VertexId> vertex_of_;  ///< trigram key -> id
  std::vector<std::array<std::string, 3>> trigrams_;
  std::unordered_map<std::string, std::uint32_t> feature_ids_;
  std::vector<std::uint64_t> feature_counts_;
  std::uint64_t total_feature_instances_ = 0;
  /// Open vertices are always the id suffix [first_open_, vertex_count()).
  VertexId first_open_ = 0;
  std::vector<OpenVertex> open_;
};

}  // namespace graphner::graph
