#include "benchmark/probes.hpp"

#include <array>
#include <functional>
#include <thread>

#include "benchmark/report.hpp"
#include "benchmark/traffic.hpp"
#include "src/graphner/learner.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/stopwatch.hpp"

namespace graphner::benchmark {

DecodeLayers probe_decode_layers(const core::GraphNerModel& model,
                                 const std::vector<text::Sentence>& sample) {
  crf::LinearChainCrf::Scratch scratch;
  features::EncodeScratch encode;
  std::vector<features::TokenFeatures> features;
  std::size_t sink = 0;  // keeps every call's result observable

  // The calls take turns over small blocks of the sample, and which call
  // goes first rotates from block to block: a slow stretch of the machine
  // lands on all four alike, and so does the cache warmth one call leaves
  // for the next on the same sentences.
  const std::array<std::function<void(const text::Sentence&)>, 4> calls = {
      [&](const text::Sentence& s) {
        model.extractor().extract_into(s, features);
        sink += features.size();
      },
      [&](const text::Sentence& s) {
        sink += model.posteriors_one(s, scratch, encode).tag_marginals.size();
      },
      [&](const text::Sentence& s) {
        sink += model.decode_one(s, scratch, encode).size();
      },
      [&](const text::Sentence& s) {
        sink += model.decode_one_blended(s, scratch, encode).size();
      }};
  constexpr std::size_t kBlock = 25;
  std::array<std::vector<double>, 4> passes;
  for (int pass = 0; pass < 3; ++pass) {
    std::array<Clock::duration, 4> spent{};
    for (std::size_t first = 0, block = 0; first < sample.size();
         first += kBlock, ++block) {
      const std::size_t last = std::min(first + kBlock, sample.size());
      for (std::size_t turn = 0; turn < calls.size(); ++turn) {
        const std::size_t call = (block + turn) % calls.size();
        const Clock::time_point start = Clock::now();
        for (std::size_t i = first; i < last; ++i) calls[call](sample[i]);
        spent[call] += Clock::now() - start;
      }
    }
    for (std::size_t call = 0; call < spent.size(); ++call)
      passes[call].push_back(
          std::chrono::duration<double, std::micro>(spent[call]).count() /
          static_cast<double>(std::max<std::size_t>(sample.size(), 1)));
  }
  if (sink == 0) return {};  // empty sample

  const double extract = median(passes[0]);
  const double posteriors = median(passes[1]);
  DecodeLayers layers;
  layers.extract_us = extract;
  layers.posteriors_us = posteriors - extract;
  layers.viterbi_us = median(passes[2]) - extract;
  layers.blend_us = median(passes[3]) - posteriors;
  return layers;
}

Replay replay_learning(std::shared_ptr<const core::GraphNerModel> base,
                       const std::vector<std::vector<text::Sentence>>& batches) {
  Replay replay;
  replay.model = base;
  core::OnlineLearner learner(std::move(base));
  for (const auto& batch : batches) {
    util::Stopwatch absorb;
    (void)learner.learn(batch);
    replay.absorb_ms.push_back(absorb.millis());
    util::Stopwatch snapshot;
    replay.model = learner.snapshot_model();
    replay.snapshot_ms.push_back(snapshot.millis());
  }
  return replay;
}

std::vector<std::uint64_t> offline_hashes(
    const core::GraphNerModel& model,
    const std::vector<const text::Sentence*>& sentences, std::size_t threads) {
  std::vector<std::uint64_t> hashes(sentences.size());
  const auto labels = std::make_shared<const text::LabelSet>(model.labels());
  std::vector<std::jthread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      crf::LinearChainCrf::Scratch scratch;
      features::EncodeScratch encode;
      for (std::size_t i = t; i < sentences.size(); i += threads) {
        serve::Request request;
        request.id = sentences[i]->id;
        serve::TagResponse response;
        response.tags = model.decode_one_blended(*sentences[i], scratch, encode);
        response.labels = labels;
        hashes[i] = line_hash(serve::format_response(request, response));
      }
    });
  }
  workers.clear();  // join
  return hashes;
}

}  // namespace graphner::benchmark
