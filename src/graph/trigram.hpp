// 3-gram vertices (Subramanya et al. 2010 convention).
//
// Every token position i of every sentence contributes the 3-gram
// (w_{i-1}, w_i, w_{i+1}), with <s> / </s> padding at the boundaries, so
// each position maps to exactly one vertex. Vertices are the *types*:
// unique lowercased 3-grams across the labelled and unlabelled data. The
// type registry is graph::PpmiCounts (vertex_features.hpp); build_vertices
// returns it as a TrigramVertices.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/text/sentence.hpp"

namespace graphner::graph {

using VertexId = std::uint32_t;

struct TrigramVertices {
  /// Vertex id -> the three (lowercased) tokens.
  std::vector<std::array<std::string, 3>> trigrams;
  /// Per sentence, per position: the vertex at that position, in the order
  /// the sentences were handed to build_vertices.
  std::vector<std::vector<VertexId>> positions;

  [[nodiscard]] std::size_t vertex_count() const noexcept { return trigrams.size(); }
  [[nodiscard]] std::size_t token_count() const noexcept;

  /// Human-readable form "[a b c]".
  [[nodiscard]] std::string vertex_text(VertexId v) const;
};

/// The lowercased 3-gram key at `position` of `sentence`.
[[nodiscard]] std::array<std::string, 3> trigram_at(const text::Sentence& sentence,
                                                    std::size_t position);

/// The one lookup key of a trigram type: the three tokens joined by \x1f.
[[nodiscard]] std::string trigram_key(const std::array<std::string, 3>& trigram);

}  // namespace graphner::graph
