// Calls into single layers, timed from the benchmark's own code, and the
// offline reference the served bytes are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graphner/pipeline.hpp"
#include "src/text/sentence.hpp"

namespace graphner::benchmark {

/// Mean microseconds per sentence of each decode layer, single-threaded on
/// warm buffers, median of three passes over the sample:
///   extract    FeatureExtractor::extract_into
///   posteriors posteriors_one - extract
///   viterbi    decode_one - extract
///   blend      decode_one_blended - posteriors_one
struct DecodeLayers {
  double extract_us = 0.0;
  double posteriors_us = 0.0;
  double viterbi_us = 0.0;
  double blend_us = 0.0;
};

[[nodiscard]] DecodeLayers probe_decode_layers(
    const core::GraphNerModel& model, const std::vector<text::Sentence>& sample);

/// A fresh OnlineLearner over `base` fed `batches` in order, each learn()
/// and snapshot_model() timed. `model` is the final snapshot (`base` when
/// there are no batches).
struct Replay {
  std::shared_ptr<const core::GraphNerModel> model;
  std::vector<double> absorb_ms;
  std::vector<double> snapshot_ms;
};

[[nodiscard]] Replay replay_learning(
    std::shared_ptr<const core::GraphNerModel> base,
    const std::vector<std::vector<text::Sentence>>& batches);

/// line_hash of the response line the offline blended decode gives for
/// each `sentences[i]` (request id = the sentence id), on `threads` threads.
[[nodiscard]] std::vector<std::uint64_t> offline_hashes(
    const core::GraphNerModel& model,
    const std::vector<const text::Sentence*>& sentences, std::size_t threads);

}  // namespace graphner::benchmark
