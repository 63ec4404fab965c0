// Multi-entity decoding tests: runtime LabelSets (canonical N-class BIO
// layout), the JNLPBA-like 5-entity corpus generator, the terminology /
// gazetteer feature bank, typed-span evaluation, and the end-to-end
// train → decode → save/load path for an 11-label model.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "src/corpus/jnlpba.hpp"
#include "src/eval/typed_eval.hpp"
#include "src/features/gazetteer.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/text/label_set.hpp"

namespace graphner {
namespace {

// --- LabelSet ---------------------------------------------------------------

TEST(LabelSet, SingleTypeReproducesTheLegacyLayoutBitForBit) {
  const text::LabelSet& labels = text::LabelSet::single();
  EXPECT_TRUE(labels.is_single());
  EXPECT_EQ(labels.num_types(), 0U);  // empty inventory = legacy sentinel
  EXPECT_EQ(labels.num_labels(), 3U);
  EXPECT_EQ(labels.begin_tag(0), text::Tag::kB);
  EXPECT_EQ(labels.inside_tag(0), text::Tag::kI);
  EXPECT_EQ(labels.outside_tag(), text::Tag::kO);
  EXPECT_EQ(labels.name(text::Tag::kB), "B");
  EXPECT_EQ(labels.name(text::Tag::kI), "I");
  EXPECT_EQ(labels.name(text::Tag::kO), "O");
  EXPECT_EQ(labels.parse("I"), text::Tag::kI);
  EXPECT_EQ(labels.parse_or_outside("junk"), text::Tag::kO);
}

TEST(LabelSet, MultiTypeCanonicalLayoutAndWireNames) {
  const text::LabelSet& labels = corpus::jnlpba_label_set();
  EXPECT_FALSE(labels.is_single());
  EXPECT_EQ(labels.num_types(), 5U);
  EXPECT_EQ(labels.num_labels(), 11U);
  // B_t = 2t, I_t = 2t + 1, O last.
  for (std::size_t t = 0; t < labels.num_types(); ++t) {
    EXPECT_EQ(static_cast<std::size_t>(labels.begin_tag(t)), 2 * t);
    EXPECT_EQ(static_cast<std::size_t>(labels.inside_tag(t)), 2 * t + 1);
    EXPECT_TRUE(labels.is_begin(labels.begin_tag(t)));
    EXPECT_TRUE(labels.is_inside(labels.inside_tag(t)));
    EXPECT_EQ(labels.type_of(labels.begin_tag(t)), t);
  }
  EXPECT_EQ(static_cast<std::size_t>(labels.outside_tag()), 10U);
  EXPECT_EQ(labels.name(labels.begin_tag(0)), "B-protein");
  EXPECT_EQ(labels.name(labels.outside_tag()), "O");
  // Wire names round-trip through parse.
  for (const std::string& name : labels.names())
    EXPECT_EQ(labels.name(*labels.parse(name)), name);
  EXPECT_FALSE(labels.parse("B").has_value());  // legacy name, typed set
}

TEST(LabelSet, MultiClassBioConstraintIsPerType) {
  const text::LabelSet& labels = corpus::jnlpba_label_set();
  const text::Tag b_protein = labels.begin_tag(0);
  const text::Tag i_protein = labels.inside_tag(0);
  const text::Tag i_dna = labels.inside_tag(1);
  const text::Tag o = labels.outside_tag();

  EXPECT_FALSE(labels.is_illegal_transition(b_protein, i_protein));
  EXPECT_FALSE(labels.is_illegal_transition(i_protein, i_protein));
  EXPECT_TRUE(labels.is_illegal_transition(b_protein, i_dna));  // cross-type
  EXPECT_TRUE(labels.is_illegal_transition(o, i_protein));
  EXPECT_FALSE(labels.is_illegal_transition(o, b_protein));
  EXPECT_TRUE(labels.is_legal_start(b_protein));
  EXPECT_TRUE(labels.is_legal_start(o));
  EXPECT_FALSE(labels.is_legal_start(i_dna));
}

TEST(LabelSet, FromNamesValidatesTheCanonicalLayout) {
  const auto set = text::label_set_from_names(
      {"B-x", "I-x", "B-y", "I-y", "O"});
  EXPECT_EQ(set.num_types(), 2U);
  EXPECT_EQ(set.entity_types(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(text::label_set_from_names({"B", "I", "O"}),
            text::LabelSet::single());

  EXPECT_THROW(static_cast<void>(
                   text::label_set_from_names({"B-x", "I-x", "B-x", "I-x", "O"})),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(text::label_set_from_names({"B-x", "I-y", "O"})),
      std::invalid_argument);
  EXPECT_THROW(static_cast<void>(text::label_set_from_names({"B-x", "I-x"})),
               std::invalid_argument);
}

TEST(LabelSet, RejectsOversizedAndMalformedInventories) {
  std::vector<std::string> too_many;
  for (int i = 0; i < 7; ++i) too_many.push_back("t" + std::to_string(i));
  EXPECT_THROW(static_cast<void>(text::LabelSet(too_many)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(text::LabelSet({"a", "a"})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(text::LabelSet({"a b"})),
               std::invalid_argument);
}

TEST(LabelDist, ActsLikeTheLegacyFixedArrayAtSizeThree) {
  text::LabelDist dist;
  EXPECT_EQ(dist.size(), 3U);
  dist.fill(0.5);
  EXPECT_EQ(dist[2], 0.5);
  dist.resize(11);
  EXPECT_EQ(dist.size(), 11U);
  EXPECT_EQ(dist[10], 0.0);  // newly exposed entries start clean
  dist[10] = 1.0;
  dist.resize(3);
  dist.resize(11);
  EXPECT_EQ(dist[10], 0.0);  // shrink zeroes the tail
}

// --- JNLPBA-like corpus -----------------------------------------------------

TEST(JnlpbaCorpus, GeneratesAllFiveTypesWithLegalTagSequences) {
  const auto data =
      corpus::generate_jnlpba_corpus(corpus::jnlpba_like_spec(0.1, 3));
  const text::LabelSet& labels = corpus::jnlpba_label_set();
  ASSERT_FALSE(data.train.empty());
  ASSERT_FALSE(data.test.empty());

  std::vector<std::size_t> mentions_per_type(labels.num_types(), 0);
  for (const auto* split : {&data.train, &data.test}) {
    for (const auto& sentence : *split) {
      ASSERT_TRUE(sentence.has_tags());
      ASSERT_TRUE(labels.is_legal_start(sentence.tags.front()));
      for (std::size_t i = 0; i < sentence.tags.size(); ++i) {
        const text::Tag tag = sentence.tags[i];
        ASSERT_LT(static_cast<std::size_t>(tag), labels.num_labels());
        if (i > 0) {
          ASSERT_FALSE(labels.is_illegal_transition(sentence.tags[i - 1], tag));
        }
        if (labels.is_begin(tag)) ++mentions_per_type[labels.type_of(tag)];
      }
    }
  }
  for (std::size_t t = 0; t < labels.num_types(); ++t)
    EXPECT_GT(mentions_per_type[t], 0U)
        << "no mentions of type " << labels.entity_types()[t];
}

TEST(JnlpbaCorpus, IsDeterministicPerSeed) {
  const auto spec = corpus::jnlpba_like_spec(0.05, 9);
  const auto a = corpus::generate_jnlpba_corpus(spec);
  const auto b = corpus::generate_jnlpba_corpus(spec);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].tokens, b.train[i].tokens);
    EXPECT_EQ(a.train[i].tags, b.train[i].tags);
  }
  auto other = spec;
  other.seed = 10;
  const auto c = corpus::generate_jnlpba_corpus(other);
  bool any_difference = false;
  for (std::size_t i = 0; i < std::min(a.train.size(), c.train.size()); ++i)
    if (a.train[i].tokens != c.train[i].tokens) any_difference = true;
  EXPECT_TRUE(any_difference);
}

// --- gazetteer --------------------------------------------------------------

TEST(Gazetteer, LongestMatchAnnotatesPositionalMembership) {
  features::Gazetteer gazetteer;
  gazetteer.add_term("PROTEIN", {"tumor", "necrosis", "factor"});
  gazetteer.add_term("PROTEIN", {"tumor"});
  gazetteer.add_term("DNA", {"tnf", "gene"});

  text::Sentence sentence;
  sentence.tokens = {"the", "Tumor", "Necrosis", "Factor", "binds"};
  std::vector<features::TokenFeatures> features(sentence.tokens.size());
  gazetteer.annotate(sentence, features);

  EXPECT_TRUE(features[0].empty());
  // Longest match wins over the 1-token "tumor" term; matching is
  // case-insensitive.
  ASSERT_EQ(features[1], (features::TokenFeatures{"GAZB=PROTEIN"}));
  EXPECT_EQ(features[2], (features::TokenFeatures{"GAZI=PROTEIN"}));
  EXPECT_EQ(features[3], (features::TokenFeatures{"GAZI=PROTEIN"}));
  EXPECT_TRUE(features[4].empty());
}

TEST(Gazetteer, IndependentBanksBothFireOnASharedPhrase) {
  features::Gazetteer gazetteer;
  gazetteer.add_term("PROTEIN", {"tnf"});
  gazetteer.add_term("DNA", {"tnf"});
  text::Sentence sentence;
  sentence.tokens = {"TNF"};
  std::vector<features::TokenFeatures> features(1);
  gazetteer.annotate(sentence, features);
  ASSERT_EQ(features[0].size(), 2U);
  EXPECT_NE(std::find(features[0].begin(), features[0].end(), "GAZB=DNA"),
            features[0].end());
  EXPECT_NE(std::find(features[0].begin(), features[0].end(), "GAZB=PROTEIN"),
            features[0].end());
}

TEST(Gazetteer, HarvestsTypedBanksFromLabelledSentences) {
  const auto data =
      corpus::generate_jnlpba_corpus(corpus::jnlpba_like_spec(0.05, 5));
  const auto gazetteer =
      features::Gazetteer::from_labelled(data.train, corpus::jnlpba_label_set());
  EXPECT_FALSE(gazetteer.empty());
  const auto banks = gazetteer.bank_names();
  // Every bank is named after an entity type that actually occurred.
  for (const auto& bank : banks) {
    const auto& types = corpus::jnlpba_label_set().entity_types();
    EXPECT_NE(std::find(types.begin(), types.end(), bank), types.end())
        << bank;
  }
  EXPECT_GE(banks.size(), 3U);
}

TEST(Gazetteer, SaveLoadRoundTripsCanonically) {
  features::Gazetteer gazetteer;
  gazetteer.add_term("B2", {"beta", "two"});
  gazetteer.add_term("A1", {"alpha"});
  gazetteer.add_term("A1", {"Alpha"});  // normalizes to a duplicate

  std::ostringstream first;
  gazetteer.save(first);
  std::istringstream in(first.str());
  const features::Gazetteer loaded = features::Gazetteer::load(in);
  EXPECT_EQ(loaded.num_banks(), 2U);
  EXPECT_EQ(loaded.num_terms(), 2U);
  std::ostringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());  // byte-identical re-serialization

  std::istringstream corrupt("banks notanumber\n");
  EXPECT_THROW(features::Gazetteer::load(corrupt), std::runtime_error);
  std::istringstream truncated("banks 1\nbank A1 2\n2 alpha beta\n");
  EXPECT_THROW(features::Gazetteer::load(truncated), std::runtime_error);
}

// --- typed-span evaluation --------------------------------------------------

TEST(TypedEval, ExactTypedMatchesOnly) {
  const text::LabelSet& labels = corpus::jnlpba_label_set();
  const text::Tag bp = labels.begin_tag(0), ip = labels.inside_tag(0);
  const text::Tag bd = labels.begin_tag(1);
  const text::Tag o = labels.outside_tag();

  // gold:  [B-protein I-protein] O [B-DNA]
  // pred:  [B-protein I-protein] O [B-protein]   (type confusion on span 2)
  const std::vector<std::vector<text::Tag>> gold = {{bp, ip, o, bd}};
  const std::vector<std::vector<text::Tag>> pred = {{bp, ip, o, bp}};
  const auto result = eval::evaluate_typed(pred, gold, labels);

  EXPECT_EQ(result.overall.true_positives, 1U);
  EXPECT_EQ(result.overall.false_positives, 1U);
  EXPECT_EQ(result.overall.false_negatives, 1U);
  ASSERT_EQ(result.per_type.size(), 5U);
  EXPECT_EQ(result.per_type[0].true_positives, 1U);   // protein span matched
  EXPECT_EQ(result.per_type[0].false_positives, 1U);  // mistyped prediction
  EXPECT_EQ(result.per_type[1].false_negatives, 1U);  // DNA span missed
  EXPECT_DOUBLE_EQ(result.overall.f_score(), 0.5);
}

TEST(TypedEval, PerfectPredictionScoresOne) {
  const text::LabelSet& labels = corpus::jnlpba_label_set();
  const text::Tag br = labels.begin_tag(2), ir = labels.inside_tag(2);
  const text::Tag o = labels.outside_tag();
  const std::vector<std::vector<text::Tag>> gold = {{o, br, ir, o}, {o, o}};
  const auto result = eval::evaluate_typed(gold, gold, labels);
  EXPECT_DOUBLE_EQ(result.overall.f_score(), 1.0);
  EXPECT_EQ(result.overall.false_positives, 0U);
  EXPECT_EQ(result.per_type[2].true_positives, 1U);

  EXPECT_THROW(static_cast<void>(eval::evaluate_typed({}, gold, labels)),
               std::invalid_argument);
}

// --- end to end: train, decode, round-trip an 11-label model ----------------

TEST(MultiEntityPipeline, TrainsDecodesAndRoundTripsWithGazetteer) {
  const auto data =
      corpus::generate_jnlpba_corpus(corpus::jnlpba_like_spec(0.08, 13));
  core::GraphNerConfig config;
  config.labels = corpus::jnlpba_label_set();
  config.gazetteer_features = true;
  const core::GraphNerModel model =
      core::GraphNerModel::train(data.train, {}, config);
  EXPECT_EQ(model.labels().num_labels(), 11U);
  ASSERT_NE(model.gazetteer(), nullptr);
  EXPECT_FALSE(model.gazetteer()->empty());

  // Decodes are legal 11-label BIO and actually find typed mentions.
  const auto predicted = model.decode_crf(data.test);
  const text::LabelSet& labels = model.labels();
  std::size_t typed_mentions = 0;
  for (const auto& tags : predicted)
    for (std::size_t i = 0; i < tags.size(); ++i) {
      ASSERT_LT(static_cast<std::size_t>(tags[i]), labels.num_labels());
      if (i == 0)
        ASSERT_TRUE(labels.is_legal_start(tags[i]));
      else
        ASSERT_FALSE(labels.is_illegal_transition(tags[i - 1], tags[i]));
      if (labels.is_begin(tags[i])) ++typed_mentions;
    }
  EXPECT_GT(typed_mentions, 0U);

  // The typed evaluation runs and the model beats the empty predictor.
  std::vector<std::vector<text::Tag>> gold;
  for (const auto& sentence : data.test) gold.push_back(sentence.tags);
  const auto result = eval::evaluate_typed(predicted, gold, labels);
  EXPECT_GT(result.overall.true_positives, 0U);

  // Text-format round-trip preserves inventory, gazetteer and decodes.
  std::ostringstream saved;
  model.save(saved);
  std::istringstream in(saved.str());
  const core::GraphNerModel loaded = core::GraphNerModel::load(in);
  EXPECT_EQ(loaded.labels().num_labels(), 11U);
  ASSERT_NE(loaded.gazetteer(), nullptr);
  EXPECT_EQ(loaded.gazetteer()->num_terms(), model.gazetteer()->num_terms());
  EXPECT_EQ(loaded.fingerprint(), model.fingerprint());
  EXPECT_EQ(loaded.decode_crf(data.test), predicted);

  // And through the mmap container.
  const std::string path = ::testing::TempDir() + "multientity_e2e.gmm";
  model.save_mmap_file(path);
  const core::GraphNerModel mapped = core::GraphNerModel::load_mmap_file(path);
  EXPECT_EQ(mapped.labels().num_labels(), 11U);
  EXPECT_EQ(mapped.decode_crf(data.test), predicted);
}

}  // namespace
}  // namespace graphner
