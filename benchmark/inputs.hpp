// Seeded inputs of the serving workloads.
//
// --seed drives only what is generated here: the request pool, the order
// requests are drawn in, the learn batches and the canary. The served model
// is the same for every seed (see main.cpp), so two seeds differ only in
// the traffic the model sees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/text/sentence.hpp"
#include "src/util/rng.hpp"

namespace graphner::benchmark {

/// Distinct sentences as the wire carries them: `lines[i]` is the TSV
/// request "s<i>\t<tokens>" and `sentences[i]` its normalized tokens.
struct Pool {
  std::vector<std::string> lines;
  std::vector<text::Sentence> sentences;
};

struct Inputs {
  Pool reads;
  /// Batches for "#REPLICA learn file"; no sentence repeats a read or
  /// canary sentence.
  std::vector<std::vector<text::Sentence>> learn_batches;
  /// Held-out sentences every learned generation must decode before it
  /// swaps in.
  std::vector<text::Sentence> canary;
};

inline constexpr std::size_t kLearnBatchSize = 8;
inline constexpr std::size_t kCanarySize = 64;

/// Generates `read_pool` distinct read sentences, `learn_batches` batches
/// and the canary, all disjoint, from the synthetic BC2GM-like generator.
[[nodiscard]] Inputs make_inputs(std::size_t read_pool,
                                 std::size_t learn_batches, std::uint64_t seed);

/// Draws pool indices for the sender: uniform over the pool, or Zipf with
/// exponent `skew` over pool rank (index 0 hottest) when skew > 0.
class Draw {
 public:
  Draw(std::size_t pool, double skew, std::uint64_t seed);

  [[nodiscard]] std::uint32_t operator()() noexcept;

 private:
  std::size_t pool_;
  std::vector<double> cdf_;  ///< cumulative Zipf weights; empty = uniform
  util::Rng rng_;
};

}  // namespace graphner::benchmark
