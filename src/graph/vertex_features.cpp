#include "src/graph/vertex_features.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/text/lemmatizer.hpp"
#include "src/util/logging.hpp"

namespace graphner::graph {
namespace {

/// Lexical representation: lemmas at offsets -2..2 ("L[-2]=mutation", ...).
std::vector<std::string> lexical_features(const text::Sentence& sentence,
                                          std::size_t position) {
  std::vector<std::string> out;
  out.reserve(5);
  for (long long d = -2; d <= 2; ++d) {
    const long long p = static_cast<long long>(position) + d;
    std::string lemma;
    if (p < 0) lemma = "<s>";
    else if (p >= static_cast<long long>(sentence.size())) lemma = "</s>";
    else lemma = text::lemmatize(sentence.tokens[static_cast<std::size_t>(p)]);
    out.push_back("L[" + std::to_string(d) + "]=" + std::move(lemma));
  }
  return out;
}

}  // namespace

std::vector<std::string> vertex_features_at(const text::Sentence& sentence,
                                            std::size_t position,
                                            const features::FeatureExtractor& extractor,
                                            const VertexFeatureConfig& config) {
  if (config.representation == VertexRepresentation::kLexical)
    return lexical_features(sentence, position);
  std::vector<std::string> names = extractor.extract_at(sentence, position);
  if (config.representation == VertexRepresentation::kMiSelected)
    std::erase_if(names, [&](const std::string& n) {
      return !config.selected_features.contains(n);
    });
  return names;
}

std::string representation_name(VertexRepresentation rep) {
  switch (rep) {
    case VertexRepresentation::kAllFeatures: return "All-features";
    case VertexRepresentation::kLexical: return "Lexical-features";
    case VertexRepresentation::kMiSelected: return "MI-selected";
  }
  return "?";
}

std::vector<VertexId> PpmiCounts::add(const text::Sentence& sentence,
                                      const features::FeatureExtractor& extractor) {
  std::vector<VertexId> row;
  row.reserve(sentence.size());
  for (std::size_t i = 0; i < sentence.size(); ++i) {
    auto trigram = trigram_at(sentence, i);
    const auto [slot, inserted] = vertex_of_.try_emplace(
        trigram_key(trigram), static_cast<VertexId>(trigrams_.size()));
    const VertexId v = slot->second;
    if (inserted) {
      trigrams_.push_back(std::move(trigram));
      open_.emplace_back();
    }
    OpenVertex* open = v >= first_open_ ? &open_[v - first_open_] : nullptr;
    if (open != nullptr) ++open->occurrences;
    for (auto& name : vertex_features_at(sentence, i, extractor, config_)) {
      const auto [feature, finserted] = feature_ids_.try_emplace(
          std::move(name), static_cast<std::uint32_t>(feature_counts_.size()));
      if (finserted) feature_counts_.push_back(0);
      ++feature_counts_[feature->second];
      ++total_feature_instances_;
      if (open != nullptr) ++open->counts[feature->second];
    }
    row.push_back(v);
  }
  return row;
}

std::vector<SparseVector> PpmiCounts::take_new_vectors() {
  // Document-frequency cap: features present at nearly every position are
  // stopword-like; drop them.
  const auto n = static_cast<double>(std::max<std::uint64_t>(1, total_feature_instances_));
  const auto df_cap = static_cast<std::uint64_t>(config_.max_document_frequency * n);
  std::vector<SparseVector> out(open_.size());
  for (std::size_t j = 0; j < open_.size(); ++j) {
    const double pv = static_cast<double>(open_[j].occurrences);
    std::vector<SparseEntry> entries;
    entries.reserve(open_[j].counts.size());
    for (const auto& [f, c] : open_[j].counts) {
      if (feature_counts_[f] > df_cap) continue;
      // PMI(v, f) = log( c(v,f) * N / (c(v) * c(f)) ); keep positive terms.
      const double pmi = std::log(static_cast<double>(c) * n /
                                  (pv * static_cast<double>(feature_counts_[f])));
      if (pmi > 0.0) entries.push_back({f, static_cast<float>(pmi)});
    }
    out[j] = SparseVector(std::move(entries));
    out[j].normalize();
  }
  open_.clear();
  first_open_ = static_cast<VertexId>(trigrams_.size());
  return out;
}

void PpmiCounts::save(std::ostream& out) const {
  out << "vertices " << trigrams_.size() << '\n';
  for (const auto& trigram : trigrams_) out << trigram_key(trigram) << '\n';

  // Feature names in id order, so load() reconstructs the name -> id map.
  std::vector<const std::string*> names(feature_ids_.size(), nullptr);
  for (const auto& [name, id] : feature_ids_) names[id] = &name;
  out << "features " << names.size() << ' ' << total_feature_instances_ << '\n';
  for (std::size_t f = 0; f < names.size(); ++f)
    out << *names[f] << '\x1f' << feature_counts_[f] << '\n';
}

PpmiCounts PpmiCounts::load(std::istream& in, VertexFeatureConfig config) {
  PpmiCounts counts(std::move(config));
  std::string word;
  std::size_t n = 0;
  if (!(in >> word >> n) || word != "vertices")
    throw std::runtime_error("learner snapshot: malformed vertices header");
  // No reserve() from the header counts: storage grows only with lines
  // actually read, so a hostile count cannot demand a huge allocation.
  in.ignore();  // the newline ending the header line
  std::string line;
  for (std::size_t v = 0; v < n; ++v) {
    if (!std::getline(in, line))
      throw std::runtime_error("learner snapshot: truncated at vertex " +
                               std::to_string(v));
    const std::size_t first = line.find('\x1f');
    const std::size_t second =
        first == std::string::npos ? first : line.find('\x1f', first + 1);
    if (second == std::string::npos)
      throw std::runtime_error("learner snapshot: malformed trigram " +
                               std::to_string(v));
    counts.trigrams_.push_back({line.substr(0, first),
                                line.substr(first + 1, second - first - 1),
                                line.substr(second + 1)});
    // The line IS trigram_key(trigram) — reuse it as the registry key.
    counts.vertex_of_.emplace(std::move(line), static_cast<VertexId>(v));
  }
  counts.first_open_ = static_cast<VertexId>(n);

  std::size_t n_features = 0;
  if (!(in >> word >> n_features >> counts.total_feature_instances_) ||
      word != "features")
    throw std::runtime_error("learner snapshot: malformed features header");
  in.ignore();
  for (std::size_t f = 0; f < n_features; ++f) {
    if (!std::getline(in, line))
      throw std::runtime_error("learner snapshot: truncated at feature " +
                               std::to_string(f));
    const std::size_t sep = line.rfind('\x1f');
    if (sep == std::string::npos)
      throw std::runtime_error("learner snapshot: malformed feature " +
                               std::to_string(f));
    counts.feature_ids_.emplace(line.substr(0, sep), static_cast<std::uint32_t>(f));
    counts.feature_counts_.push_back(std::stoull(line.substr(sep + 1)));
  }
  return counts;
}

VertexBuild build_vertices(const std::vector<const text::Sentence*>& sentences,
                           const features::FeatureExtractor& extractor,
                           const VertexFeatureConfig& config) {
  PpmiCounts counts(config);
  VertexBuild out;
  out.vertices.positions.reserve(sentences.size());
  for (const text::Sentence* sentence : sentences)
    out.vertices.positions.push_back(counts.add(*sentence, extractor));
  out.vectors = counts.take_new_vectors();
  out.feature_instance_count = counts.feature_counts_.size();
  out.vertices.trigrams = std::move(counts.trigrams_);
  util::log_debug("vertex vectors: ", out.vectors.size(), " vertices, ",
                  out.feature_instance_count, " feature instances (",
                  representation_name(config.representation), ")");
  return out;
}

}  // namespace graphner::graph
