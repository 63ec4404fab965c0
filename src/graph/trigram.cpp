#include "src/graph/trigram.hpp"

#include <cassert>

#include "src/util/strings.hpp"

namespace graphner::graph {

std::size_t TrigramVertices::token_count() const noexcept {
  std::size_t n = 0;
  for (const auto& row : positions) n += row.size();
  return n;
}

std::string TrigramVertices::vertex_text(VertexId v) const {
  const auto& t = trigrams.at(v);
  return "[" + t[0] + " " + t[1] + " " + t[2] + "]";
}

std::string trigram_key(const std::array<std::string, 3>& trigram) {
  std::string key;
  key.reserve(trigram[0].size() + trigram[1].size() + trigram[2].size() + 2);
  key += trigram[0];
  key += '\x1f';
  key += trigram[1];
  key += '\x1f';
  key += trigram[2];
  return key;
}

std::array<std::string, 3> trigram_at(const text::Sentence& sentence,
                                      std::size_t position) {
  assert(position < sentence.size());
  auto at = [&](long long p) -> std::string {
    if (p < 0) return "<s>";
    if (p >= static_cast<long long>(sentence.size())) return "</s>";
    return util::to_lower(sentence.tokens[static_cast<std::size_t>(p)]);
  };
  const auto pos = static_cast<long long>(position);
  return {at(pos - 1), at(pos), at(pos + 1)};
}

}  // namespace graphner::graph
