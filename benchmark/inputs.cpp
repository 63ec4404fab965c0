#include "benchmark/inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "src/corpus/generator.hpp"
#include "src/serve/protocol.hpp"

namespace graphner::benchmark {

namespace {

/// Endless stream of distinct, non-empty generated sentences.
class DistinctSentences {
 public:
  explicit DistinctSentences(std::uint64_t seed)
      : spec_(corpus::bc2gm_like_spec(2.0, 42)), seed_(seed) {}

  text::Sentence next() {
    for (;;) {
      if (cursor_ == chunk_.size()) refill();
      text::Sentence sentence = std::move(chunk_[cursor_++]);
      serve::normalize_tokens(sentence.tokens);
      if (sentence.size() == 0) continue;
      if (seen_.insert(serve::sentence_key(sentence.tokens)).second)
        return sentence;
    }
  }

 private:
  void refill() {
    // A bounded number of chunks: the generator's sentence space is far
    // larger than any pool asked for, so running dry means a bug.
    if (++chunks_ > 64)
      throw std::runtime_error("sentence generator stopped producing new text");
    chunk_ = corpus::generate_unlabelled(spec_, 20000,
                                         util::splitmix64(seed_));
    cursor_ = 0;
  }

  corpus::CorpusSpec spec_;
  std::uint64_t seed_;
  std::vector<text::Sentence> chunk_;
  std::size_t cursor_ = 0;
  std::size_t chunks_ = 0;
  std::unordered_set<std::string> seen_;
};

}  // namespace

Inputs make_inputs(std::size_t read_pool, std::size_t learn_batches,
                   std::uint64_t seed) {
  DistinctSentences stream(seed);
  Inputs inputs;
  inputs.reads.lines.reserve(read_pool);
  inputs.reads.sentences.reserve(read_pool);
  for (std::size_t i = 0; i < read_pool; ++i) {
    text::Sentence sentence = stream.next();
    sentence.id = "s" + std::to_string(i);
    std::string line = sentence.id + '\t';
    for (std::size_t t = 0; t < sentence.size(); ++t)
      line += (t > 0 ? " " : "") + sentence.tokens[t];
    inputs.reads.lines.push_back(std::move(line));
    inputs.reads.sentences.push_back(std::move(sentence));
  }
  for (std::size_t i = 0; i < kCanarySize; ++i)
    inputs.canary.push_back(stream.next());
  inputs.learn_batches.resize(learn_batches);
  for (auto& batch : inputs.learn_batches)
    for (std::size_t i = 0; i < kLearnBatchSize; ++i)
      batch.push_back(stream.next());
  return inputs;
}

Draw::Draw(std::size_t pool, double skew, std::uint64_t seed)
    : pool_(pool), rng_(seed) {
  if (skew <= 0.0) return;
  cdf_.resize(pool);
  double total = 0.0;
  for (std::size_t rank = 0; rank < pool; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), skew);
    cdf_[rank] = total;
  }
}

std::uint32_t Draw::operator()() noexcept {
  if (cdf_.empty()) return static_cast<std::uint32_t>(rng_.below(pool_));
  const double u = rng_.uniform() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(it - cdf_.begin(), pool_ - 1));
}

}  // namespace graphner::benchmark
