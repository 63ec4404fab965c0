// Frozen copy of the pre-windowing BrownClustering::train (see header).
// Any edit here invalidates the golden-equivalence contract — don't.
#include "tests/support/brown_reference.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/util/strings.hpp"

namespace graphner::embeddings {
namespace {

/// Mutable cluster-level bigram model with AMI merge-cost queries.
/// Slots 0..capacity-1; merging marks the absorbed slot dead.
class DenseClusterModel {
 public:
  DenseClusterModel(std::size_t capacity, double total_bigrams)
      : capacity_(capacity),
        total_(total_bigrams),
        bigram_(capacity * capacity, 0.0),
        left_(capacity, 0.0),
        right_(capacity, 0.0),
        alive_(capacity, false) {}

  void activate(std::size_t slot) { alive_[slot] = true; }
  [[nodiscard]] bool alive(std::size_t slot) const { return alive_[slot]; }

  void add_bigram(std::size_t a, std::size_t b, double count) {
    bigram_[a * capacity_ + b] += count;
    left_[a] += count;
    right_[b] += count;
  }

  /// AMI term for the (a, b) cluster bigram.
  [[nodiscard]] double q(std::size_t a, std::size_t b) const {
    const double c = bigram_[a * capacity_ + b];
    if (c <= 0.0 || left_[a] <= 0.0 || right_[b] <= 0.0) return 0.0;
    const double p = c / total_;
    return p * std::log(p * total_ * total_ / (left_[a] * right_[b]));
  }

  /// Sum of AMI terms that mention slot c (row + column - diagonal).
  [[nodiscard]] double contribution(std::size_t c,
                                    const std::vector<std::size_t>& active) const {
    double acc = 0.0;
    for (const std::size_t d : active) {
      acc += q(c, d);
      if (d != c) acc += q(d, c);
    }
    return acc;
  }

  /// AMI loss of merging b into a (non-negative up to fp noise).
  [[nodiscard]] double merge_loss(std::size_t a, std::size_t b,
                                  const std::vector<std::size_t>& active) const {
    // Terms removed: everything mentioning a or b.
    double removed = contribution(a, active) + contribution(b, active);
    removed -= q(a, b) + q(b, a);  // counted in both contributions

    // Terms added: the merged cluster u against all remaining clusters.
    const double lu = left_[a] + left_[b];
    const double ru = right_[a] + right_[b];
    double added = 0.0;
    auto q_merged = [&](double count, double l, double r) {
      if (count <= 0.0 || l <= 0.0 || r <= 0.0) return 0.0;
      const double p = count / total_;
      return p * std::log(p * total_ * total_ / (l * r));
    };
    for (const std::size_t d : active) {
      if (d == a || d == b) continue;
      added += q_merged(bigram_[a * capacity_ + d] + bigram_[b * capacity_ + d], lu,
                        right_[d]);
      added += q_merged(bigram_[d * capacity_ + a] + bigram_[d * capacity_ + b],
                        left_[d], ru);
    }
    added += q_merged(bigram_[a * capacity_ + a] + bigram_[a * capacity_ + b] +
                          bigram_[b * capacity_ + a] + bigram_[b * capacity_ + b],
                      lu, ru);
    return removed - added;
  }

  /// Merge slot b into slot a.
  void merge(std::size_t a, std::size_t b, const std::vector<std::size_t>& active) {
    for (const std::size_t d : active) {
      if (d == b) continue;
      bigram_[a * capacity_ + d] += bigram_[b * capacity_ + d];
      bigram_[b * capacity_ + d] = 0.0;
      bigram_[d * capacity_ + a] += bigram_[d * capacity_ + b];
      bigram_[d * capacity_ + b] = 0.0;
    }
    bigram_[a * capacity_ + a] += bigram_[b * capacity_ + b] +
                                  bigram_[a * capacity_ + b] +
                                  bigram_[b * capacity_ + a];
    bigram_[a * capacity_ + b] = 0.0;
    bigram_[b * capacity_ + a] = 0.0;
    bigram_[b * capacity_ + b] = 0.0;
    left_[a] += left_[b];
    right_[a] += right_[b];
    left_[b] = 0.0;
    right_[b] = 0.0;
    alive_[b] = false;
  }

 private:
  std::size_t capacity_;
  double total_;
  std::vector<double> bigram_;
  std::vector<double> left_;
  std::vector<double> right_;
  std::vector<bool> alive_;
};

struct Counts {
  std::unordered_map<std::string, std::uint64_t> unigram;
  std::unordered_map<std::string, std::unordered_map<std::string, std::uint64_t>> bigram;
  std::uint64_t total_bigrams = 0;
};

Counts count_corpus(const std::vector<text::Sentence>& sentences) {
  Counts counts;
  for (const auto& sentence : sentences) {
    std::string prev = "<s>";
    counts.unigram[prev] += 1;
    for (const auto& raw : sentence.tokens) {
      const std::string tok = util::to_lower(raw);
      counts.unigram[tok] += 1;
      counts.bigram[prev][tok] += 1;
      ++counts.total_bigrams;
      prev = tok;
    }
    counts.bigram[prev]["</s>"] += 1;
    ++counts.total_bigrams;
  }
  return counts;
}

}  // namespace

BrownClustering train_brown_reference(const std::vector<text::Sentence>& sentences,
                                      const BrownConfig& config) {
  BrownClustering result;
  const Counts counts = count_corpus(sentences);
  if (counts.total_bigrams == 0) return result;

  // Frequency-ordered vocabulary (excluding boundary pseudo-tokens).
  std::vector<std::pair<std::string, std::uint64_t>> vocab;
  for (const auto& [word, count] : counts.unigram) {
    if (word == "<s>" || word == "</s>") continue;
    if (count >= config.min_count) vocab.emplace_back(word, count);
  }
  std::sort(vocab.begin(), vocab.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (vocab.size() > config.max_vocabulary) vocab.resize(config.max_vocabulary);
  if (vocab.empty()) return result;

  const std::size_t num_clusters = std::min(config.num_clusters, vocab.size());

  // Each vocabulary word gets a slot; slot merging is tracked by a
  // union-find so word -> final cluster resolves after all merges.
  std::unordered_map<std::string, std::size_t> word_slot;
  for (std::size_t i = 0; i < vocab.size(); ++i) word_slot[vocab[i].first] = i;
  std::vector<std::size_t> parent(vocab.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  DenseClusterModel model(vocab.size(), static_cast<double>(counts.total_bigrams));
  std::vector<std::size_t> active;

  // Reverse bigram index (word -> list of (preceding word, count)) so that
  // counts from words already absorbed into a cluster are still credited to
  // that cluster's representative slot when a new word is inserted.
  std::unordered_map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      reverse_bigram;
  for (const auto& [prev, nexts] : counts.bigram)
    for (const auto& [next, c] : nexts) reverse_bigram[next].emplace_back(prev, c);

  auto add_word_counts = [&](std::size_t slot) {
    const std::string& word = vocab[slot].first;
    // Forward: word -> (active cluster | itself).
    if (auto it = counts.bigram.find(word); it != counts.bigram.end()) {
      for (const auto& [next, c] : it->second) {
        const auto jt = word_slot.find(next);
        if (jt == word_slot.end()) continue;
        const std::size_t other = find(jt->second);
        if (other == slot || model.alive(other))
          model.add_bigram(slot, other, static_cast<double>(c));
      }
    }
    // Reverse: (active cluster) -> word; the self pair was added above.
    if (auto it = reverse_bigram.find(word); it != reverse_bigram.end()) {
      for (const auto& [prev, c] : it->second) {
        const auto jt = word_slot.find(prev);
        if (jt == word_slot.end()) continue;
        const std::size_t other = find(jt->second);
        if (other != slot && model.alive(other))
          model.add_bigram(other, slot, static_cast<double>(c));
      }
    }
    model.activate(slot);
  };

  // Phase 1: seed with the most frequent `num_clusters` words.
  for (std::size_t i = 0; i < num_clusters; ++i) {
    add_word_counts(i);
    active.push_back(i);
  }

  // Phase 2: insert each remaining word, then merge it into the cluster
  // whose merge loses the least average mutual information.
  for (std::size_t i = num_clusters; i < vocab.size(); ++i) {
    add_word_counts(i);
    active.push_back(i);
    double best_loss = std::numeric_limits<double>::infinity();
    std::size_t best_target = active.front();
    for (const std::size_t target : active) {
      if (target == i) continue;
      const double loss = model.merge_loss(target, i, active);
      if (loss < best_loss) {
        best_loss = loss;
        best_target = target;
      }
    }
    model.merge(best_target, i, active);
    parent[i] = best_target;
    active.pop_back();  // slot i no longer active
  }

  // Phase 3: merge the final clusters down to one, recording the tree.
  struct Node {
    int left = -1;
    int right = -1;
    std::size_t slot = 0;  ///< leaf only
  };
  std::vector<Node> tree;
  std::unordered_map<std::size_t, int> slot_node;
  for (const std::size_t slot : active) {
    slot_node[slot] = static_cast<int>(tree.size());
    tree.push_back({-1, -1, slot});
  }
  std::vector<std::size_t> remaining = active;
  while (remaining.size() > 1) {
    double best_loss = std::numeric_limits<double>::infinity();
    std::size_t best_a = remaining[0];
    std::size_t best_b = remaining[1];
    for (std::size_t x = 0; x < remaining.size(); ++x) {
      for (std::size_t y = x + 1; y < remaining.size(); ++y) {
        const double loss = model.merge_loss(remaining[x], remaining[y], remaining);
        if (loss < best_loss) {
          best_loss = loss;
          best_a = remaining[x];
          best_b = remaining[y];
        }
      }
    }
    model.merge(best_a, best_b, remaining);
    const int node = static_cast<int>(tree.size());
    tree.push_back({slot_node[best_a], slot_node[best_b], 0});
    slot_node[best_a] = node;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best_b));
  }

  // Walk the tree from the root assigning bit strings to leaves.
  std::vector<std::string> slot_path(vocab.size());
  if (!tree.empty()) {
    struct Frame {
      int node;
      std::string path;
    };
    std::vector<Frame> stack{{static_cast<int>(tree.size()) - 1, ""}};
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      const Node& node = tree[static_cast<std::size_t>(frame.node)];
      if (node.left < 0) {
        slot_path[node.slot] = frame.path.empty() ? "0" : frame.path;
        continue;
      }
      stack.push_back({node.left, frame.path + "0"});
      stack.push_back({node.right, frame.path + "1"});
    }
  }

  // Final cluster ids and word assignments.
  std::unordered_map<std::size_t, int> slot_cluster;
  for (const std::size_t slot : active) {
    slot_cluster[slot] = static_cast<int>(result.paths_.size());
    result.paths_.push_back(slot_path[slot]);
  }
  for (const auto& [word, slot] : word_slot)
    result.word_cluster_[word] = slot_cluster[find(slot)];

  return result;
}

}  // namespace graphner::embeddings
