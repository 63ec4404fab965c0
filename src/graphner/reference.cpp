#include "src/graphner/reference.hpp"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/graph/trigram.hpp"

namespace graphner::core {

ReferenceDistributions ReferenceDistributions::build(
    const std::vector<text::Sentence>& labelled, const text::LabelSet& labels) {
  ReferenceDistributions out;
  const std::size_t L = labels.num_labels();
  std::unordered_map<std::string, std::size_t> occurrences;
  for (const auto& sentence : labelled) {
    assert(sentence.has_tags());
    for (std::size_t i = 0; i < sentence.size(); ++i) {
      const std::string key = graph::trigram_key(graph::trigram_at(sentence, i));
      auto& dist =
          out.table_.try_emplace(key, propagation::LabelDistribution(L))
              .first->second;
      dist[text::tag_index(sentence.tags[i])] += 1.0;
      ++occurrences[key];
    }
  }
  for (auto& [key, dist] : out.table_) {
    const auto n = static_cast<double>(occurrences[key]);
    for (auto& p : dist) p /= n;
  }
  return out;
}

const propagation::LabelDistribution* ReferenceDistributions::find(
    const std::array<std::string, 3>& trigram) const {
  const auto it = table_.find(graph::trigram_key(trigram));
  return it == table_.end() ? nullptr : &it->second;
}

void ReferenceDistributions::save(std::ostream& out) const {
  out.precision(17);
  out << table_.size() << '\n';
  // Sorted keys: the serialization is a function of the table's content,
  // not of unordered_map iteration order — byte-identical files for equal
  // tables (checkpoint resume verifies final models with cmp).
  std::vector<const std::string*> keys;
  keys.reserve(table_.size());
  for (const auto& [key, dist] : table_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) {
    const auto& dist = table_.at(*key);
    // The key joins the three tokens with \x1f; rewrite as tab-separated.
    std::string printable = *key;
    for (char& c : printable)
      if (c == '\x1f') c = '\t';
    out << printable << '\t';
    for (std::size_t y = 0; y < dist.size(); ++y)
      out << (y == 0 ? "" : " ") << dist[y];
    out << '\n';
  }
}

ReferenceDistributions ReferenceDistributions::load(std::istream& in) {
  ReferenceDistributions result;
  std::size_t entries = 0;
  in >> entries;
  in.ignore();  // trailing newline
  std::string line;
  for (std::size_t i = 0; i < entries && std::getline(in, line); ++i) {
    // layout: tok1 \t tok2 \t tok3 \t "b i o"
    std::array<std::string, 4> fields;
    std::size_t start = 0;
    for (std::size_t f = 0; f < 3; ++f) {
      const auto tab = line.find('\t', start);
      if (tab == std::string::npos) break;
      fields[f] = line.substr(start, tab - start);
      start = tab + 1;
    }
    fields[3] = line.substr(start);
    // Read however many columns the line carries (3 for legacy single-type
    // files, 2T+1 for multi-entity label sets).
    propagation::LabelDistribution dist(text::kMaxLabels);
    std::istringstream nums(fields[3]);
    std::size_t count = 0;
    double v = 0.0;
    while (count < text::kMaxLabels && (nums >> v)) dist[count++] = v;
    dist.resize(count);
    result.table_[fields[0] + '\x1f' + fields[1] + '\x1f' + fields[2]] = dist;
  }
  return result;
}

std::uint64_t ReferenceDistributions::content_hash() const {
  // Hash each entry independently and combine commutatively (sum), so the
  // digest does not depend on unordered_map iteration order and needs no
  // key sort on the hot learn path.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto fnv1a = [](std::uint64_t h, const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= kPrime;
    }
    return h;
  };
  std::uint64_t combined = fnv1a(kOffset, nullptr, 0);
  for (const auto& [key, dist] : table_) {
    std::uint64_t h = kOffset;
    h = fnv1a(h, key.data(), key.size());
    h = fnv1a(h, dist.data(), dist.size() * sizeof(double));
    combined += h;
  }
  combined ^= static_cast<std::uint64_t>(table_.size());
  return combined;
}

double ReferenceDistributions::positive_fraction() const {
  if (table_.empty()) return 0.0;
  std::size_t positive = 0;
  for (const auto& [key, dist] : table_) {
    // O is the last label in the canonical layout; everything before it is
    // some flavour of B/I mass.
    double pos = 0.0;
    for (std::size_t y = 0; y + 1 < dist.size(); ++y) pos += dist[y];
    if (pos > dist[dist.size() - 1]) ++positive;
  }
  return static_cast<double>(positive) / static_cast<double>(table_.size());
}

}  // namespace graphner::core
