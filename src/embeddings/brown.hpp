// Brown clustering (Brown et al. 1992).
//
// BANNER-ChemDNER feeds hierarchical Brown-cluster bit-string prefixes to
// its CRF as features extracted from unlabelled text. This implementation
// follows the classic greedy algorithm: keep C active clusters, insert
// words in frequency order, and repeatedly merge the pair whose merge
// loses the least average mutual information of the cluster-level bigram
// distribution. After all words are inserted, the final C clusters are
// merged down to one while recording the merge tree, which yields a binary
// path (bit string) per cluster.
//
// The trainer keeps the cluster-bigram statistics in a recycled
// (C+1) x (C+1) slot window — C persistent cluster slots plus one slot
// reused for each inserted word — so memory is O(C^2) regardless of the
// vocabulary, and it caches the per-pair AMI terms in a table that is
// refreshed incrementally (only the rows/columns whose counts changed
// since the last merge). The candidate scans run under
// util::parallel_reduce. The greedy merge sequence is bit-for-bit the one
// the original dense-matrix implementation produced; that implementation
// is frozen in tests/support/brown_reference.{hpp,cpp} (the test-support
// library) and the equivalence is enforced by tests/test_train_kernels.cpp.
//
// Training cost is O(V * C^2) merge-loss term evaluations over an
// L1-resident window; the vocabulary cap exists to bound the number of
// greedy insertions, not memory. Rarer words map to the cluster of a
// same-shape frequent word when possible, else to a catch-all rare
// cluster.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/text/sentence.hpp"

namespace graphner::embeddings {

struct BrownConfig {
  std::size_t num_clusters = 48;
  std::size_t max_vocabulary = 1200;
  std::size_t min_count = 2;
};

class BrownClustering {
 public:
  /// Cluster the token stream of `sentences` (sentence boundaries break
  /// bigrams). Deterministic, and independent of the thread count.
  static BrownClustering train(const std::vector<text::Sentence>& sentences,
                               const BrownConfig& config);

  /// Bit-string path of the word's cluster ("0110..."); empty if unknown.
  [[nodiscard]] std::string path(const std::string& word) const;

  /// Path prefix of length n (whole path if shorter); empty if unknown.
  [[nodiscard]] std::string path_prefix(const std::string& word, std::size_t n) const;

  /// Flat cluster id in [0, num_clusters); -1 if unknown.
  [[nodiscard]] int cluster(const std::string& word) const;

  [[nodiscard]] std::size_t num_clusters() const noexcept { return paths_.size(); }
  [[nodiscard]] std::size_t vocabulary_size() const noexcept { return word_cluster_.size(); }

  /// Text serialization (cluster paths + word assignments).
  void save(std::ostream& out) const;

  /// Restore from `save` output. Throws std::runtime_error on malformed
  /// input: bad header, truncated tables, non-bit-string paths,
  /// out-of-range cluster ids, duplicate words.
  static BrownClustering load(std::istream& in);

 private:
  friend BrownClustering train_brown_reference(
      const std::vector<text::Sentence>& sentences, const BrownConfig& config);

  std::unordered_map<std::string, int> word_cluster_;
  std::vector<std::string> paths_;  ///< per cluster id
};

}  // namespace graphner::embeddings
