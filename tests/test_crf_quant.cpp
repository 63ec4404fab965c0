// Quantized decode (src/crf/quantized.cpp, DESIGN.md §10).
//
// Contract under test:
//   * exact options (and the default) stay bit-identical to the scaled
//     kernels — the quantized layer must be invisible until asked for;
//   * quantized emission tables round-trip within the advertised drift, and
//     options asking for an unprepared table decode in float;
//   * a degenerate scaled lattice under a quantized emission pass still
//     reaches the log-space fallback of the exact recurrence;
//   * scratches may be reused across lengths and shared-model decodes may
//     run concurrently (one scratch per thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "src/crf/decode_options.hpp"
#include "src/crf/model.hpp"
#include "src/crf/state_space.hpp"
#include "src/text/tag.hpp"
#include "src/util/math.hpp"
#include "src/util/rng.hpp"

namespace graphner::crf {
namespace {

using text::kNumTags;
using text::Tag;

EncodedSentence random_sentence(std::size_t length, std::size_t num_features,
                                util::Rng& rng) {
  EncodedSentence s;
  s.features.resize(length);
  for (auto& feats : s.features) {
    for (int j = 0; j < 12; ++j)
      feats.push_back(static_cast<FeatureIndex::Id>(rng.below(num_features)));
    std::sort(feats.begin(), feats.end());
    feats.erase(std::unique(feats.begin(), feats.end()), feats.end());
  }
  return s;
}

DecodeOptions quantized(Quantization quant) {
  DecodeOptions o;
  o.quantization = quant;
  return o;
}

LinearChainCrf random_model(const StateSpace& space, std::size_t num_features,
                            double stddev, std::uint64_t seed) {
  LinearChainCrf model(space, num_features);
  util::Rng rng(seed);
  std::vector<double> w(model.num_parameters());
  for (auto& x : w) x = rng.normal(0.0, stddev);
  model.set_weights(w);
  return model;
}

void expect_posteriors_bit_identical(const SentencePosteriors& a,
                                     const SentencePosteriors& b) {
  EXPECT_DOUBLE_EQ(a.log_z, b.log_z);
  ASSERT_EQ(a.tag_marginals.size(), b.tag_marginals.size());
  for (std::size_t i = 0; i < a.tag_marginals.size(); ++i)
    for (std::size_t t = 0; t < kNumTags; ++t)
      EXPECT_DOUBLE_EQ(a.tag_marginals[i][t], b.tag_marginals[i][t])
          << "position " << i << " tag " << t;
  for (std::size_t i = 1; i < a.pairwise_marginals.size(); ++i)
    for (std::size_t p = 0; p < kNumTags * kNumTags; ++p)
      EXPECT_DOUBLE_EQ(a.pairwise_marginals[i][p], b.pairwise_marginals[i][p])
          << "position " << i << " pair " << p;
}

TEST(PrunedExact, DefaultOptionsAreExactAndBitIdentical) {
  for (const auto& space : {StateSpace::order1(), StateSpace::order2()}) {
    SCOPED_TRACE("order " + std::to_string(space.order()));
    const auto model = random_model(space, 300, 0.5, 31);
    EXPECT_TRUE(model.decode_options().exact());

    util::Rng rng(32);
    LinearChainCrf::Scratch sa, sb;
    for (const std::size_t length : {1UL, 2UL, 17UL, 48UL}) {
      const auto sentence = random_sentence(length, 300, rng);
      // Explicit exact options against the two-argument default entry point.
      expect_posteriors_bit_identical(
          model.posteriors(sentence, sa, DecodeOptions{}),
          model.posteriors(sentence, sb));
      EXPECT_EQ(model.viterbi(sentence, sa, DecodeOptions{}),
                model.viterbi(sentence, sb));
    }
  }
}

TEST(PrunedQuant, RoundTripWithinAdvertisedDrift) {
  const auto space = StateSpace::order2();
  auto model = random_model(space, 400, 0.7, 41);
  const auto w = model.weights();
  double absmax = 0.0;
  for (std::size_t j = 0; j < model.transition_base(); ++j)
    absmax = std::max(absmax, std::abs(w[j]));

  util::Rng rng(42);
  std::vector<double> exact, quant;
  const Quantization mode = Quantization::kInt8;
  const double levels = 127.0;
  model.prepare_quantization(mode);
  ASSERT_TRUE(model.quantization_ready(mode));
  // Rounding to the nearest level loses at most half a step of the
  // per-feature-row scale; the drift accessor reports the table-wide max.
  const double drift = model.quantization_drift();
  EXPECT_GT(drift, 0.0);
  EXPECT_LE(drift, absmax / (2.0 * levels) * (1.0 + 1e-6));

  for (int rep = 0; rep < 5; ++rep) {
    const auto sentence = random_sentence(1 + rng.below(20), 400, rng);
    model.emission_scores(sentence, exact);
    model.emission_scores(sentence, mode, quant);
    ASSERT_EQ(exact.size(), quant.size());
    for (std::size_t i = 0; i < sentence.size(); ++i) {
      // Each active feature contributes at most `drift` of error (plus
      // vanishing float accumulator rounding).
      const double bound =
          static_cast<double>(sentence.features[i].size()) * drift + 1e-4;
      for (std::size_t s = 0; s < space.num_states(); ++s)
        EXPECT_NEAR(quant[i * 9 + s], exact[i * 9 + s], bound)
            << "position " << i << " state " << s;
    }
  }

  // The float "mode" is the exact kernel itself.
  const auto sentence = random_sentence(7, 400, rng);
  model.emission_scores(sentence, exact);
  model.emission_scores(sentence, Quantization::kFloat, quant);
  for (std::size_t j = 0; j < exact.size(); ++j)
    EXPECT_DOUBLE_EQ(quant[j], exact[j]);
}

TEST(PrunedQuant, UnpreparedTableDowngradesToFloat) {
  const auto space = StateSpace::order2();
  auto model = random_model(space, 300, 0.5, 43);
  EXPECT_FALSE(model.quantization_ready(Quantization::kInt8));

  util::Rng rng(44);
  const auto sentence = random_sentence(12, 300, rng);
  LinearChainCrf::Scratch sc;
  // Asking for an unprepared table must not crash or change results: the
  // decode silently runs in float.
  EXPECT_EQ(model.viterbi(sentence, sc, quantized(Quantization::kInt8)),
            model.viterbi(sentence, sc));

  model.prepare_quantization(Quantization::kInt8);
  EXPECT_TRUE(model.quantization_ready(Quantization::kInt8));
  // set_weights() rebuilds (not drops) prepared tables.
  std::vector<double> w(model.weights().begin(), model.weights().end());
  w[0] += 1.0;
  model.set_weights(w);
  EXPECT_TRUE(model.quantization_ready(Quantization::kInt8));

  model.prepare_quantization(Quantization::kFloat);  // drops the tables
  EXPECT_FALSE(model.quantization_ready(Quantization::kInt8));
}

TEST(PrunedFallback, DegenerateScaleFallsBackToExact) {
  // The ScaledFallback construction from test_crf_scaled: position 4 forces
  // tag O, position 5 forces tag I, O -> I is illegal, so every forward mass
  // underflows at position 5 and the recurrence must hand the sentence to
  // its log-space net — here over an int8 emission lattice. The forcing
  // weight is 127 x 8, which int8 stores exactly (scale 8, level 127), and
  // every other row is zero, so the quantized lattice equals the float one
  // and the outputs must match the exact path bit for bit.
  constexpr double kForce = 127.0 * 8.0;
  for (const auto& space : {StateSpace::order1(), StateSpace::order2()}) {
    SCOPED_TRACE("order " + std::to_string(space.order()));
    LinearChainCrf model(space, 16);
    std::vector<double> w(model.num_parameters(), 0.0);
    for (StateId s = 0; s < space.num_states(); ++s) {
      if (space.tag_of(s) == Tag::kO) w[model.emission_slot(0, s)] = kForce;
      if (space.tag_of(s) == Tag::kI) w[model.emission_slot(1, s)] = kForce;
    }
    model.set_weights(w);
    model.prepare_quantization(Quantization::kInt8);

    EncodedSentence sentence;
    sentence.features.resize(8);
    for (std::size_t i = 0; i < 8; ++i)
      sentence.features[i] = {static_cast<FeatureIndex::Id>(i + 2)};
    sentence.features[4] = {0};
    sentence.features[5] = {1};

    const auto int8 = quantized(Quantization::kInt8);
    LinearChainCrf::Scratch quant, exact;
    const auto post = model.posteriors(sentence, quant, int8);
    ASSERT_TRUE(std::isfinite(post.log_z));
    expect_posteriors_bit_identical(post, model.posteriors(sentence, exact));
    EXPECT_EQ(model.viterbi(sentence, quant, int8), model.viterbi(sentence, exact));
  }
}

TEST(PrunedScratch, ReuseAcrossLengthsMatchesFresh) {
  const auto space = StateSpace::order2();
  auto model = random_model(space, 200, 0.4, 45);
  model.prepare_quantization(Quantization::kInt8);
  const auto options = quantized(Quantization::kInt8);

  util::Rng rng(46);
  LinearChainCrf::Scratch warm;
  for (const std::size_t length : {50UL, 3UL, 27UL, 1UL, 64UL, 2UL}) {
    SCOPED_TRACE("length " + std::to_string(length));
    const auto sentence = random_sentence(length, 200, rng);
    LinearChainCrf::Scratch fresh;
    const auto a = model.posteriors(sentence, warm, options);
    const auto b = model.posteriors(sentence, fresh, options);
    expect_posteriors_bit_identical(a, b);
    EXPECT_EQ(model.viterbi(sentence, warm, options),
              model.viterbi(sentence, fresh, options));
  }
}

TEST(PrunedConcurrent, SharedModelDistinctScratches) {
  // One immutable model, one scratch per thread: quantized decode has no
  // shared mutable state.
  const auto space = StateSpace::order2();
  auto model = random_model(space, 300, 0.5, 47);
  model.prepare_quantization(Quantization::kInt8);
  const auto options = quantized(Quantization::kInt8);

  util::Rng rng(48);
  std::vector<EncodedSentence> pool;
  for (int i = 0; i < 40; ++i)
    pool.push_back(random_sentence(1 + rng.below(30), 300, rng));

  std::vector<std::vector<Tag>> expected;
  LinearChainCrf::Scratch sc;
  for (const auto& s : pool) expected.push_back(model.viterbi(s, sc, options));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<Tag>>> got(kThreads);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] {
        LinearChainCrf::Scratch local;
        for (const auto& s : pool)
          got[t].push_back(model.viterbi(s, local, options));
      });
    for (auto& th : workers) th.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected);
}

TEST(PrunedOptions, PredicatesAndParsing) {
  EXPECT_TRUE(DecodeOptions{}.exact());
  EXPECT_FALSE(quantized(Quantization::kInt8).exact());

  EXPECT_EQ(parse_quantization(""), Quantization::kFloat);
  EXPECT_EQ(parse_quantization("off"), Quantization::kFloat);
  EXPECT_EQ(parse_quantization("float"), Quantization::kFloat);
  EXPECT_EQ(parse_quantization("int8"), Quantization::kInt8);
  EXPECT_THROW((void)parse_quantization("int4"), std::invalid_argument);
  // The deleted int16 table is refused by name, not silently downgraded.
  try {
    (void)parse_quantization("int16");
    ADD_FAILURE() << "int16 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }

  EXPECT_EQ(quantized(Quantization::kInt8).to_string(), "quantized=int8");
  EXPECT_EQ(DecodeOptions{}.to_string(), "quantized=float");
}

}  // namespace
}  // namespace graphner::crf
