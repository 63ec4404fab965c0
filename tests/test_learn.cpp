// Online learning tests (ISSUE 8): OnlineLearner state growth, learned-fork
// fingerprints, the #REPLICA learn wire verb, and the router's learn → fork →
// tier-wide hot-swap → cache-invalidation path.
//
// Durable learning tests (ISSUE 9): OnlineLearner snapshot round-trips
// bit-identically and stays bit-identical after learning one more batch
// on each side; LearnLog recovers byte-identical state from snapshot +
// WAL replay (quarantined sequences skipped); the router's canary gate,
// rollback verb, file-size cap and WAL-backed restart.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/corpus/generator.hpp"
#include "src/graphner/learner.hpp"
#include "src/obs/registry.hpp"
#include "src/router/learn_log.hpp"
#include "src/router/router.hpp"
#include "src/serve/protocol.hpp"

namespace graphner::core {
namespace {

class LearnTier : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.05, 7));
    model_ = new std::shared_ptr<const GraphNerModel>(
        std::make_shared<const GraphNerModel>(
            GraphNerModel::train(data.train, {}, GraphNerConfig{})));
    sentences_ = new std::vector<text::Sentence>();
    for (const auto& s : data.test) {
      text::Sentence stripped;
      stripped.id = s.id;
      stripped.tokens = s.tokens;
      sentences_->push_back(std::move(stripped));
    }
    ASSERT_GE(sentences_->size(), 8U);
  }
  static void TearDownTestSuite() {
    delete sentences_;
    delete model_;
  }

  [[nodiscard]] static std::vector<text::Sentence> slice(std::size_t begin,
                                                         std::size_t end) {
    return {sentences_->begin() + begin, sentences_->begin() + end};
  }

  static std::shared_ptr<const GraphNerModel>* model_;
  static std::vector<text::Sentence>* sentences_;
};

std::shared_ptr<const GraphNerModel>* LearnTier::model_ = nullptr;
std::vector<text::Sentence>* LearnTier::sentences_ = nullptr;

TEST_F(LearnTier, LearnGrowsStateAndRepeatedBatchAppendsNothing) {
  OnlineLearner learner(*model_);
  const auto batch = slice(0, 4);
  const LearnStats stats = learner.learn(batch);
  EXPECT_EQ(stats.sentences, batch.size());
  EXPECT_GT(stats.appended_vertices, 0U);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(learner.vertex_count(), stats.appended_vertices);
  EXPECT_EQ(learner.distributions().size(), learner.vertex_count());
  EXPECT_EQ(learner.index().graph().vertex_count(), learner.vertex_count());

  // Same sentences again: every trigram type is already a vertex, and the
  // posterior anchors re-average to the same values — a structural no-op.
  const LearnStats again = learner.learn(batch);
  EXPECT_EQ(again.appended_vertices, 0U);
  EXPECT_EQ(again.patched_vertices, 0U);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(learner.vertex_count(), stats.appended_vertices);
}

TEST_F(LearnTier, LearnMetricsConserve) {
  auto& registry = obs::Registry::global();
  const std::uint64_t appended_before =
      registry.counter("learn.vertices_appended").value();
  OnlineLearner learner(*model_);
  (void)learner.learn(slice(0, 3));
  (void)learner.learn(slice(3, 6));
  // Conservation law scraped by the CI smoke: the learn.vertices gauge is
  // this learner's vertex count, and every one of those vertices arrived
  // through the learn.vertices_appended counter.
  EXPECT_EQ(registry.gauge("learn.vertices").value(),
            static_cast<double>(learner.vertex_count()));
  EXPECT_EQ(registry.counter("learn.vertices_appended").value() -
                appended_before,
            static_cast<std::uint64_t>(learner.vertex_count()));
  EXPECT_EQ(registry.gauge("learn.edges").value(),
            static_cast<double>(learner.edge_count()));
}

TEST_F(LearnTier, SnapshotForkCarriesLearnedTableAndFreshFingerprint) {
  OnlineLearner learner(*model_);
  const auto empty_fork = learner.snapshot_model();
  // No learned content yet: the fork hashes an empty table — same blended
  // decode behaviour as the base, but it is still a distinct generation.
  EXPECT_EQ(empty_fork->learned()->size(), 0U);

  (void)learner.learn(slice(0, 4));
  const auto fork = learner.snapshot_model();
  ASSERT_NE(fork->learned(), nullptr);
  EXPECT_GT(fork->learned()->size(), 0U);
  EXPECT_NE(fork->fingerprint(), (*model_)->fingerprint());
  EXPECT_NE(fork->fingerprint(), empty_fork->fingerprint());

  // Unchanged learned content => identical fingerprint (pure function of
  // content, not of construction time); more learning changes it again.
  EXPECT_EQ(learner.snapshot_model()->fingerprint(), fork->fingerprint());
  (void)learner.learn(slice(4, 8));
  EXPECT_NE(learner.snapshot_model()->fingerprint(), fork->fingerprint());

  // The fork decodes (blended path reads the learned table on reference
  // misses) and stays tag-compatible in shape.
  crf::LinearChainCrf::Scratch scratch;
  features::EncodeScratch encode;
  const auto& sentence = sentences_->front();
  EXPECT_EQ(fork->decode_one_blended(sentence, scratch, encode).size(),
            sentence.size());
}

TEST(LearnProtocol, LearnLineIsAdminSugar) {
  const auto parsed =
      serve::parse_request_line("#REPLICA learn text p53 activates");
  EXPECT_EQ(parsed.kind, serve::LineKind::kAdmin);
  EXPECT_EQ(parsed.admin, "learn text p53 activates");

  const auto status = serve::parse_request_line("#REPLICA learn status");
  EXPECT_EQ(status.kind, serve::LineKind::kAdmin);
  EXPECT_EQ(status.admin, "learn status");

  // The retired "#LEARN" spelling answers a parse error naming its
  // replacement; it must never fall through to bare-token tagging.
  for (const std::string line :
       {"#LEARN status", "#LEARN text p53 activates", "#LEARN"}) {
    SCOPED_TRACE(line);
    const auto retired = serve::parse_request_line(line);
    EXPECT_EQ(retired.kind, serve::LineKind::kMalformed);
    EXPECT_NE(retired.error.find("#REPLICA learn"), std::string::npos)
        << retired.error;
  }
}

TEST_F(LearnTier, RouterLearnSwapsEveryReplicaAndInvalidatesTheCache) {
  router::RouterConfig config;
  config.replicas = 2;
  config.replica_service.workers = 1;
  config.learn_enabled = true;
  router::Router router(*model_, config);
  const auto base_fingerprint = (*model_)->fingerprint();
  EXPECT_EQ(router.replica(0).fingerprint(), base_fingerprint);

  // Prime the cache under the base generation.
  ASSERT_TRUE(router.submit(sentences_->front()).get().ok());
  EXPECT_EQ(router.cache().size(), 1U);

  const std::string status = router.admin("learn status");
  EXPECT_EQ(status.rfind("learn\tvertices=0", 0), 0U) << status;

  std::string line;
  for (const auto& token : (*sentences_)[1].tokens)
    line += (line.empty() ? "" : " ") + token;
  const std::string reply = router.admin("learn text " + line);
  EXPECT_EQ(reply.rfind("OK learned 1 sentence(s)", 0), 0U) << reply;

  // The learned fork reached *both* replicas and retired the old cache
  // generation tier-wide.
  EXPECT_NE(router.replica(0).fingerprint(), base_fingerprint);
  EXPECT_EQ(router.replica(0).fingerprint(), router.replica(1).fingerprint());
  EXPECT_EQ(router.cache().size(), 0U);

  // Serving still works against the swapped-in fork.
  ASSERT_TRUE(router.submit(sentences_->front()).get().ok());

  EXPECT_EQ(router.admin("learn bogus").rfind("ERROR unknown learn mode", 0),
            0U);
  EXPECT_EQ(router.admin("learn text").rfind("ERROR learn text needs", 0), 0U);
  EXPECT_EQ(
      router.admin("learn file /nonexistent/sents").rfind("ERROR learn file", 0),
      0U);
  router.stop();
}

// --- durable learning (ISSUE 9) --------------------------------------------

[[nodiscard]] std::string serialized(const OnlineLearner& learner) {
  std::ostringstream out;
  learner.save(out);
  return out.str();
}

/// Fresh scratch directory for a LearnLog / router WAL test.
[[nodiscard]] std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "graphner_" + name;
  std::remove((dir + "/learn.wal").c_str());
  std::remove((dir + "/learn.snapshot").c_str());
  return dir;
}

TEST_F(LearnTier, SnapshotRoundTripStaysBitIdenticalAcrossSeeds) {
  // Two unlabelled corpora from different generator seeds: the round-trip
  // property must not depend on which sentences were absorbed.
  for (const std::uint64_t seed : {11ULL, 23ULL}) {
    const auto extra = corpus::generate_corpus(corpus::bc2gm_like_spec(0.05, seed));
    std::vector<text::Sentence> batch_a;
    std::vector<text::Sentence> batch_b;
    for (std::size_t i = 0; i < extra.test.size() && i < 6; ++i) {
      text::Sentence stripped;
      stripped.tokens = extra.test[i].tokens;
      (i < 3 ? batch_a : batch_b).push_back(std::move(stripped));
    }
    ASSERT_EQ(batch_a.size(), 3U);
    ASSERT_EQ(batch_b.size(), 3U);

    OnlineLearner original(*model_);
    (void)original.learn(batch_a);
    const std::string bytes = serialized(original);

    std::istringstream in(bytes);
    OnlineLearner restored = OnlineLearner::load(in, *model_);
    // Bit-identical state straight after the round trip...
    EXPECT_EQ(serialized(restored), bytes) << "seed " << seed;
    EXPECT_EQ(restored.vertex_count(), original.vertex_count());
    EXPECT_EQ(restored.snapshot_model()->fingerprint(),
              original.snapshot_model()->fingerprint());

    // ...and still bit-identical after each side learns one more batch —
    // the property WAL replay rests on (learn() is deterministic given
    // bit-identical starting state).
    (void)original.learn(batch_b);
    (void)restored.learn(batch_b);
    EXPECT_EQ(serialized(restored), serialized(original)) << "seed " << seed;
    EXPECT_EQ(restored.snapshot_model()->fingerprint(),
              original.snapshot_model()->fingerprint());
  }
}

TEST_F(LearnTier, SnapshotLoadRejectsMismatchedBaseModel) {
  OnlineLearner learner(*model_);
  (void)learner.learn(slice(0, 3));
  const std::string bytes = serialized(learner);
  // The learned fork has a different fingerprint than the base the
  // snapshot was taken over — loading over it must fail loudly, not
  // silently blend two models.
  const auto wrong_base = learner.snapshot_model();
  std::istringstream in(bytes);
  EXPECT_THROW((void)OnlineLearner::load(in, wrong_base), std::runtime_error);
}

TEST_F(LearnTier, LearnLogRecoversByteIdenticalStateFromWalReplay) {
  const std::string dir = scratch_dir("learnlog_replay");
  obs::Registry registry;
  const router::LearnLogConfig config{dir, /*snapshot_every=*/1000};
  std::string committed;
  {
    router::LearnLog log(config, *model_, core::OnlineLearnerConfig{}, registry);
    ASSERT_TRUE(log.durable());
    (void)log.learner().learn(slice(0, 3));
    EXPECT_EQ(log.commit(slice(0, 3)), 1U);
    (void)log.learner().learn(slice(3, 6));
    EXPECT_EQ(log.commit(slice(3, 6)), 2U);
    EXPECT_EQ(log.wal_records(), 2U);
    committed = serialized(log.learner());
  }  // "crash": no snapshot was written, recovery must replay the WAL

  router::LearnLog recovered(config, *model_, core::OnlineLearnerConfig{},
                             registry);
  EXPECT_FALSE(recovered.recovery().snapshot_loaded);
  EXPECT_EQ(recovered.recovery().replayed_batches, 2U);
  EXPECT_EQ(recovered.recovery().wal_tail, util::WalTailState::kClean);
  EXPECT_EQ(recovered.last_seq(), 2U);
  EXPECT_EQ(serialized(recovered.learner()), committed);
}

TEST_F(LearnTier, LearnLogCompactsIntoSnapshotAndReplaysTheTail) {
  const std::string dir = scratch_dir("learnlog_compact");
  obs::Registry registry;
  const router::LearnLogConfig config{dir, /*snapshot_every=*/2};
  std::string committed;
  std::uint64_t fork_fingerprint = 0;
  {
    router::LearnLog log(config, *model_, core::OnlineLearnerConfig{}, registry);
    (void)log.learner().learn(slice(0, 2));
    (void)log.commit(slice(0, 2));
    (void)log.learner().learn(slice(2, 4));
    (void)log.commit(slice(2, 4));  // second commit triggers compaction
    EXPECT_EQ(log.snapshot_seq(), 2U);
    EXPECT_EQ(log.wal_records(), 0U);  // WAL reset by the snapshot
    (void)log.learner().learn(slice(4, 6));
    (void)log.commit(slice(4, 6));  // tail batch past the snapshot
    committed = serialized(log.learner());
    fork_fingerprint = log.learner().snapshot_model()->fingerprint();
  }

  router::LearnLog recovered(config, *model_, core::OnlineLearnerConfig{},
                             registry);
  EXPECT_TRUE(recovered.recovery().snapshot_loaded);
  EXPECT_EQ(recovered.recovery().snapshot_seq, 2U);
  EXPECT_EQ(recovered.recovery().replayed_batches, 1U);  // only the tail
  EXPECT_EQ(recovered.last_seq(), 3U);
  EXPECT_EQ(serialized(recovered.learner()), committed);
  EXPECT_EQ(recovered.learner().snapshot_model()->fingerprint(),
            fork_fingerprint);
}

TEST_F(LearnTier, LearnLogQuarantineSkipsBatchOnRebuildAndReplay) {
  const std::string dir = scratch_dir("learnlog_quarantine");
  obs::Registry registry;
  const router::LearnLogConfig config{dir, /*snapshot_every=*/1000};

  // Reference: only the first batch, never the poisoned one.
  OnlineLearner reference(*model_);
  (void)reference.learn(slice(0, 3));
  const std::string clean = serialized(reference);

  router::LearnLog log(config, *model_, core::OnlineLearnerConfig{}, registry);
  (void)log.learner().learn(slice(0, 3));
  (void)log.commit(slice(0, 3));
  (void)log.learner().learn(slice(3, 6));  // the poisoned batch, absorbed
  (void)log.commit(slice(3, 6));
  ASSERT_NE(serialized(log.learner()), clean);

  log.quarantine(2, "canary said no");
  log.rebuild();
  EXPECT_EQ(serialized(log.learner()), clean);
  EXPECT_EQ(log.quarantined_total(), 1U);

  // Replay honours the quarantine record too.
  router::LearnLog recovered(config, *model_, core::OnlineLearnerConfig{},
                             registry);
  EXPECT_EQ(recovered.recovery().replayed_batches, 1U);
  EXPECT_EQ(recovered.recovery().skipped_quarantined, 1U);
  EXPECT_EQ(serialized(recovered.learner()), clean);
  EXPECT_EQ(recovered.last_seq(), 2U);  // the quarantined seq stays consumed
}

TEST_F(LearnTier, RouterRestartReplaysWalToByteIdenticalTagging) {
  const std::string dir = scratch_dir("router_wal");
  router::RouterConfig config;
  config.replicas = 2;
  config.replica_service.workers = 1;
  config.replica_service.blend_decode = true;  // learned table matters
  config.learn_enabled = true;
  config.learn_wal_dir = dir;

  std::uint64_t learned_fingerprint = 0;
  std::vector<std::vector<text::Tag>> before;
  {
    router::Router router(*model_, config);
    std::string line;
    for (const auto& token : (*sentences_)[0].tokens)
      line += (line.empty() ? "" : " ") + token;
    ASSERT_EQ(router.admin("learn text " + line).rfind("OK", 0), 0U);
    learned_fingerprint = router.replica(0).fingerprint();
    EXPECT_NE(learned_fingerprint, (*model_)->fingerprint());
    for (std::size_t i = 1; i < 5; ++i) {
      auto response = router.submit((*sentences_)[i]).get();
      ASSERT_TRUE(response.ok());
      before.push_back(std::move(response.tags));
    }
    router.stop();
  }

  // Restart over the same WAL dir: replay must reach the exact learned
  // state — same serving fingerprint on every replica, byte-identical
  // tags, and no learn seed / re-learn involved.
  router::Router restarted(*model_, config);
  EXPECT_EQ(restarted.replica(0).fingerprint(), learned_fingerprint);
  EXPECT_EQ(restarted.replica(1).fingerprint(), learned_fingerprint);
  ASSERT_NE(restarted.learn_log(), nullptr);
  EXPECT_EQ(restarted.learn_log()->recovery().replayed_batches, 1U);
  for (std::size_t i = 1; i < 5; ++i) {
    auto response = restarted.submit((*sentences_)[i]).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.tags, before[i - 1]) << "sentence " << i;
  }
  const std::string status = restarted.admin("learn status");
  EXPECT_NE(status.find("wal\ton"), std::string::npos) << status;
  EXPECT_NE(status.find("seq=1"), std::string::npos) << status;
  restarted.stop();
}

TEST_F(LearnTier, CanaryGateQuarantinesDriftingBatch) {
  router::RouterConfig config;
  config.replicas = 1;
  config.replica_service.workers = 1;
  config.learn_enabled = true;
  config.canary = slice(0, 3);
  config.canary_max_disagreement = -1.0;  // every gated batch must drift
  router::Router router(*model_, config);
  const auto base_fingerprint = router.replica(0).fingerprint();

  std::string line;
  for (const auto& token : (*sentences_)[3].tokens)
    line += (line.empty() ? "" : " ") + token;
  const std::string reply = router.admin("learn text " + line);
  EXPECT_EQ(reply.rfind("ERROR", 0), 0U) << reply;
  EXPECT_NE(reply.find("canary"), std::string::npos) << reply;
  EXPECT_NE(reply.find("quarantined"), std::string::npos) << reply;

  // The poisoned batch never reached the replica, the learner rolled back
  // to the durable state, and status shows the quarantine.
  EXPECT_EQ(router.replica(0).fingerprint(), base_fingerprint);
  EXPECT_EQ(router.learner()->vertex_count(), 0U);
  const std::string status = router.admin("learn status");
  EXPECT_NE(status.find("quarantined=1"), std::string::npos) << status;
  const auto snapshot = router.observability_snapshot();
  EXPECT_EQ(snapshot.counter_value("learn.canary.quarantined"), 1U);
  router.stop();
}

TEST_F(LearnTier, RollbackRestoresThePreviousGenerationTierWide) {
  const std::string dir = scratch_dir("router_rollback");
  router::RouterConfig config;
  config.replicas = 2;
  config.replica_service.workers = 1;
  config.learn_enabled = true;
  config.learn_wal_dir = dir;
  router::Router router(*model_, config);

  const auto line_of = [&](std::size_t i) {
    std::string line;
    for (const auto& token : (*sentences_)[i].tokens)
      line += (line.empty() ? "" : " ") + token;
    return line;
  };
  ASSERT_EQ(router.admin("learn text " + line_of(0)).rfind("OK", 0), 0U);
  const auto generation_one = router.replica(0).fingerprint();
  ASSERT_EQ(router.admin("learn text " + line_of(1)).rfind("OK", 0), 0U);
  const auto generation_two = router.replica(0).fingerprint();
  ASSERT_NE(generation_one, generation_two);

  const std::string reply = router.admin("learn rollback");
  EXPECT_EQ(reply.rfind("OK rolled back", 0), 0U) << reply;
  EXPECT_EQ(router.replica(0).fingerprint(), generation_one);
  EXPECT_EQ(router.replica(1).fingerprint(), generation_one);

  // The rollback is durable: a restart replays to the rolled-back state,
  // not to generation two.
  router.stop();
  router::Router restarted(*model_, config);
  EXPECT_EQ(restarted.replica(0).fingerprint(), generation_one);
  EXPECT_EQ(restarted.learn_log()->recovery().skipped_quarantined, 1U);

  // Generation history is in-memory only — after a restart there is no
  // previous generation retained, so a further rollback is refused.
  EXPECT_EQ(restarted.admin("learn rollback").rfind("ERROR", 0), 0U);
  restarted.stop();
}

TEST_F(LearnTier, LearnFileCapRejectsOversizedIngestion) {
  router::RouterConfig config;
  config.replicas = 1;
  config.replica_service.workers = 1;
  config.learn_enabled = true;
  config.learn_max_file_bytes = 16;
  router::Router router(*model_, config);

  const std::string path = ::testing::TempDir() + "oversized_learn.txt";
  {
    std::ofstream out(path);
    out << "far more than sixteen bytes of sentence text\n";
  }
  const std::string reply = router.admin("learn file " + path);
  EXPECT_EQ(reply.rfind("ERROR", 0), 0U) << reply;
  EXPECT_NE(reply.find("16"), std::string::npos) << reply;
  std::remove(path.c_str());
  router.stop();
}

TEST(LearnProtocol, OversizedAdminLinesAreRejectedAtParseTime) {
  const std::string big(serve::kMaxAdminLineBytes + 1, 'a');
  const auto learn = serve::parse_request_line("#REPLICA learn text " + big);
  EXPECT_EQ(learn.kind, serve::LineKind::kMalformed);
  EXPECT_NE(learn.error.find("admin line cap"), std::string::npos)
      << learn.error;

  const auto replica = serve::parse_request_line("#REPLICA " + big);
  EXPECT_EQ(replica.kind, serve::LineKind::kMalformed);
  EXPECT_TRUE(replica.admin.empty());

  // Exactly at the cap still parses.
  const std::string at_cap(serve::kMaxAdminLineBytes - 11, 'b');
  const auto fits = serve::parse_request_line("#REPLICA learn text " + at_cap);
  EXPECT_EQ(fits.kind, serve::LineKind::kAdmin);
}

TEST_F(LearnTier, RouterRejectsLearnWhenDisabled) {
  router::RouterConfig config;
  config.replicas = 1;
  config.replica_service.workers = 1;
  router::Router router(*model_, config);
  EXPECT_EQ(router.admin("learn status").rfind("ERROR learning disabled", 0),
            0U);
  router.stop();
}

}  // namespace
}  // namespace graphner::core
