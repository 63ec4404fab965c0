// Multi-tenant serving tests (DESIGN.md §14): the tenant-scoped request
// API (TSV '#<model>' id suffix, JSON "model" member, "#MODEL" connection
// default), the router's ModelRegistry, tenant-keyed cache isolation,
// token-bucket quotas, the per-tenant conservation laws, and per-tenant
// health supervision (breakers, fail-static, drop under probing).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/generator.hpp"
#include "src/corpus/jnlpba.hpp"
#include "src/router/router.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/service.hpp"
#include "src/serve/socket_server.hpp"
#include "src/util/logging.hpp"

namespace graphner {
namespace {

using router::Router;
using router::RouterConfig;

// --- wire parsing: the tenant dimension ------------------------------------

TEST(TenantProtocol, ParsesModelSuffixBeforeDeadlineSuffix) {
  const auto parsed = serve::parse_request_line("r7@50#genes\tp53 binds DNA");
  ASSERT_EQ(parsed.kind, serve::LineKind::kRequest);
  EXPECT_EQ(parsed.request.id, "r7");
  EXPECT_EQ(parsed.request.deadline_ms, 50);
  EXPECT_EQ(parsed.request.model, "genes");

  // Model-only suffix, no deadline.
  const auto bare = serve::parse_request_line("r8#alt\tp53");
  ASSERT_EQ(bare.kind, serve::LineKind::kRequest);
  EXPECT_EQ(bare.request.id, "r8");
  EXPECT_EQ(bare.request.deadline_ms, 0);
  EXPECT_EQ(bare.request.model, "alt");
}

TEST(TenantProtocol, HashSuffixThatIsNotAValidNameStaysInTheId) {
  // '/' is outside the model-name charset, so the suffix is id content —
  // ids containing '#' keep working exactly as before the tenant API.
  const auto parsed = serve::parse_request_line("issue#12/34\tp53");
  ASSERT_EQ(parsed.kind, serve::LineKind::kRequest);
  EXPECT_EQ(parsed.request.id, "issue#12/34");
  EXPECT_TRUE(parsed.request.model.empty());
}

TEST(TenantProtocol, ParsesJsonModelMemberAndRejectsBadTypes) {
  const auto parsed = serve::parse_request_line(
      "{\"id\": \"j1\", \"model\": \"genes\", \"tokens\": [\"p53\"]}");
  ASSERT_EQ(parsed.kind, serve::LineKind::kRequest);
  EXPECT_EQ(parsed.request.model, "genes");

  const auto bad_type = serve::parse_request_line(
      "{\"id\": \"j2\", \"model\": 5, \"tokens\": [\"p53\"]}");
  EXPECT_EQ(bad_type.kind, serve::LineKind::kMalformed);
  EXPECT_NE(bad_type.error.find("\"model\""), std::string::npos);

  const auto bad_name = serve::parse_request_line(
      "{\"id\": \"j3\", \"model\": \"a b\", \"tokens\": [\"p53\"]}");
  EXPECT_EQ(bad_name.kind, serve::LineKind::kMalformed);
}

TEST(TenantProtocol, ModelControlLineSetsAndResetsTheConnectionDefault) {
  const auto set = serve::parse_request_line("#MODEL genes");
  ASSERT_EQ(set.kind, serve::LineKind::kModel);
  EXPECT_EQ(set.model, "genes");

  for (const std::string reset : {"#MODEL", "#MODEL off", "#MODEL reset"}) {
    const auto parsed = serve::parse_request_line(reset);
    ASSERT_EQ(parsed.kind, serve::LineKind::kModel) << reset;
    EXPECT_TRUE(parsed.model.empty()) << reset;
  }

  EXPECT_EQ(serve::parse_request_line("#MODEL bad name").kind,
            serve::LineKind::kMalformed);
  EXPECT_EQ(serve::parse_request_line("#MODEL bad/name").kind,
            serve::LineKind::kMalformed);
}

TEST(TenantProtocol, ValidModelNameEnforcesTheCharset) {
  EXPECT_TRUE(serve::valid_model_name("genes"));
  EXPECT_TRUE(serve::valid_model_name("jnlpba-v2.1_beta"));
  EXPECT_FALSE(serve::valid_model_name(""));
  EXPECT_FALSE(serve::valid_model_name("a b"));
  EXPECT_FALSE(serve::valid_model_name("a/b"));
  EXPECT_FALSE(serve::valid_model_name("a#b"));
}

TEST(TenantProtocol, IngestionComputesTheSentenceKeyOnce) {
  // The key is derived from the *normalized* tokens at parse time; every
  // downstream consumer (coalescing, cache, failover) reuses it verbatim.
  const auto parsed = serve::parse_request_line("r1\t p53\tbinds   DNA ");
  ASSERT_EQ(parsed.kind, serve::LineKind::kRequest);
  EXPECT_EQ(parsed.request.key, serve::sentence_key(parsed.request.tokens));
  EXPECT_FALSE(parsed.request.key.empty());
}

TEST(TenantProtocol, AdminAliasesShareOneParsePath) {
  // Every admin subtree (learn, model, ...) lands in the same kAdmin
  // payload shape through the one "#REPLICA" spelling.
  const auto replica = serve::parse_request_line("#REPLICA learn text p53");
  ASSERT_EQ(replica.kind, serve::LineKind::kAdmin);
  EXPECT_EQ(replica.admin, "learn text p53");

  const auto model = serve::parse_request_line("#REPLICA model list");
  ASSERT_EQ(model.kind, serve::LineKind::kAdmin);
  EXPECT_EQ(model.admin, "model list");
}

// --- single service: model selector semantics -------------------------------

class TenantTier : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.05, 7));
    model_ = new std::shared_ptr<const core::GraphNerModel>(
        std::make_shared<const core::GraphNerModel>(
            core::GraphNerModel::train(data.train, {}, core::GraphNerConfig{})));

    // A genuinely different second model: the JNLPBA-like 5-entity corpus
    // (11-label decode), so cross-tenant contamination would be visible
    // not just in tag values but in the label inventory itself.
    auto spec = corpus::jnlpba_like_spec(0.05, 11);
    const auto alt_data = corpus::generate_jnlpba_corpus(spec);
    core::GraphNerConfig alt_config;
    alt_config.labels = corpus::jnlpba_label_set();
    alt_model_ = new std::shared_ptr<const core::GraphNerModel>(
        std::make_shared<const core::GraphNerModel>(
            core::GraphNerModel::train(alt_data.train, {}, alt_config)));

    sentences_ = new std::vector<text::Sentence>();
    for (const auto& s : data.test) {
      text::Sentence stripped;
      stripped.id = s.id;
      stripped.tokens = s.tokens;
      serve::normalize_tokens(stripped.tokens);
      sentences_->push_back(std::move(stripped));
      if (sentences_->size() >= 40) break;
    }
    expected_ = new std::vector<std::vector<text::Tag>>(
        (*model_)->decode_crf(*sentences_));
    alt_expected_ = new std::vector<std::vector<text::Tag>>(
        (*alt_model_)->decode_crf(*sentences_));
  }
  static void TearDownTestSuite() {
    delete alt_expected_;
    delete expected_;
    delete sentences_;
    delete alt_model_;
    delete model_;
  }

  [[nodiscard]] static RouterConfig small_config(std::size_t replicas) {
    RouterConfig config;
    config.replicas = replicas;
    config.replica_service.workers = 1;
    config.failover_backoff.initial = std::chrono::milliseconds(1);
    config.failover_backoff.max = std::chrono::milliseconds(4);
    return config;
  }

  [[nodiscard]] static serve::SubmitOptions for_model(std::string name) {
    serve::SubmitOptions options;
    options.model = std::move(name);
    return options;
  }

  static std::shared_ptr<const core::GraphNerModel>* model_;
  static std::shared_ptr<const core::GraphNerModel>* alt_model_;
  static std::vector<text::Sentence>* sentences_;
  static std::vector<std::vector<text::Tag>>* expected_;
  static std::vector<std::vector<text::Tag>>* alt_expected_;
};

std::shared_ptr<const core::GraphNerModel>* TenantTier::model_ = nullptr;
std::shared_ptr<const core::GraphNerModel>* TenantTier::alt_model_ = nullptr;
std::vector<text::Sentence>* TenantTier::sentences_ = nullptr;
std::vector<std::vector<text::Tag>>* TenantTier::expected_ = nullptr;
std::vector<std::vector<text::Tag>>* TenantTier::alt_expected_ = nullptr;

TEST_F(TenantTier, SingleServiceAcceptsItsOwnNameAndRejectsOthers) {
  serve::ServiceConfig config;
  config.workers = 1;
  serve::TaggingService service(**model_, config);

  auto ok = service.submit(sentences_->front(), for_model("default")).get();
  EXPECT_TRUE(ok.ok()) << ok.error;

  auto bare = service.submit(sentences_->front()).get();
  EXPECT_TRUE(bare.ok());

  auto unknown = service.submit(sentences_->front(), for_model("nope")).get();
  EXPECT_EQ(unknown.status, serve::Status::kUnknownModel);
  EXPECT_NE(unknown.error.find("nope"), std::string::npos);
  EXPECT_EQ(service.metrics().counter_value("rejected_unknown_model"), 1U);
  service.stop();
}

TEST_F(TenantTier, ResponsesCarryTheServingModelsLabelInventory) {
  serve::ServiceConfig config;
  config.workers = 1;
  serve::TaggingService service(**alt_model_, config);
  auto response = service.submit(sentences_->front()).get();
  ASSERT_TRUE(response.ok()) << response.error;
  ASSERT_TRUE(response.labels);
  EXPECT_EQ(response.labels->num_labels(), 11U);
  EXPECT_EQ(response.labels->name(response.labels->begin_tag(0)), "B-protein");
  service.stop();
}

// --- router: registry, isolation, quotas ------------------------------------

TEST_F(TenantTier, UnknownModelAnswersStructuredStatusBeforeAdmission) {
  Router router(*model_, small_config(1));
  auto response = router.submit(sentences_->front(), for_model("ghost")).get();
  EXPECT_EQ(response.status, serve::Status::kUnknownModel);
  EXPECT_NE(response.error.find("model list"), std::string::npos);

  // Pre-admission rejection: the request ledger and cache never saw it.
  const auto snapshot = router.observability_snapshot();
  EXPECT_EQ(snapshot.counter_value("router.unknown_model"), 1U);
  EXPECT_EQ(snapshot.counter_value("router.requests"), 0U);
  EXPECT_EQ(snapshot.counter_value("cache.hits") +
                snapshot.counter_value("cache.misses"),
            0U);
  router.stop();
}

TEST_F(TenantTier, TwoResidentModelsServeInterleavedByteExact) {
  Router router(*model_, small_config(2));
  router.add_model("jnlpba", *alt_model_);

  // Interleave the two tenants request-by-request (the pipelined shape).
  std::vector<std::future<serve::TagResponse>> deft, alt;
  for (const auto& sentence : *sentences_) {
    deft.push_back(router.submit(sentence, for_model("")));
    alt.push_back(router.submit(sentence, for_model("jnlpba")));
  }
  for (std::size_t i = 0; i < sentences_->size(); ++i) {
    auto d = deft[i].get();
    auto a = alt[i].get();
    ASSERT_TRUE(d.ok()) << d.error;
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(d.tags, (*expected_)[i]) << "default tenant, sentence " << i;
    EXPECT_EQ(a.tags, (*alt_expected_)[i]) << "jnlpba tenant, sentence " << i;
  }

  // Per-tenant conservation: every admitted request is a hit or a miss.
  const auto snapshot = router.observability_snapshot();
  const auto n = static_cast<std::uint64_t>(sentences_->size());
  EXPECT_EQ(snapshot.counter_value("tenant.default.requests"), n);
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.requests"), n);
  for (const std::string tenant : {"default", "jnlpba"})
    EXPECT_EQ(snapshot.counter_value("tenant." + tenant + ".requests"),
              snapshot.counter_value("tenant." + tenant + ".cache_hits") +
                  snapshot.counter_value("tenant." + tenant + ".cache_misses"))
        << tenant;
  EXPECT_EQ(snapshot.counter_value("router.requests"), 2 * n);
  EXPECT_EQ(snapshot.counter_value("cache.hits") +
                snapshot.counter_value("cache.misses"),
            2 * n);
  router.stop();
}

TEST_F(TenantTier, IdenticalSentencesNeverCrossTenantCacheLines) {
  Router router(*model_, small_config(1));
  router.add_model("jnlpba", *alt_model_);
  const auto& sentence = sentences_->front();

  // Same sentence, both tenants, twice each. If the cache keyed on the
  // sentence alone, the second tenant's first request would "hit" the
  // other tenant's entry and serve the wrong model's tags.
  ASSERT_TRUE(router.submit(sentence, for_model("")).get().ok());
  ASSERT_TRUE(router.submit(sentence, for_model("jnlpba")).get().ok());
  auto repeat_default = router.submit(sentence, for_model("")).get();
  auto repeat_alt = router.submit(sentence, for_model("jnlpba")).get();
  ASSERT_TRUE(repeat_default.ok());
  ASSERT_TRUE(repeat_alt.ok());
  EXPECT_TRUE(repeat_default.coalesced);
  EXPECT_TRUE(repeat_alt.coalesced);
  EXPECT_EQ(repeat_default.tags, (*expected_)[0]);
  EXPECT_EQ(repeat_alt.tags, (*alt_expected_)[0]);
  // The cache-hit response still names tags in the tenant's inventory.
  ASSERT_TRUE(repeat_alt.labels);
  EXPECT_EQ(repeat_alt.labels->num_labels(), 11U);

  const auto snapshot = router.observability_snapshot();
  EXPECT_EQ(snapshot.counter_value("tenant.default.cache_hits"), 1U);
  EXPECT_EQ(snapshot.counter_value("tenant.default.cache_misses"), 1U);
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.cache_hits"), 1U);
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.cache_misses"), 1U);
  router.stop();
}

TEST_F(TenantTier, QuotaAdmitsExactlyBurstThenRejectsStructured) {
  Router router(*model_, small_config(1));
  router.add_model("jnlpba", *alt_model_);

  // rate 0, burst 3: deterministically admits exactly 3 requests.
  const std::string reply = router.admin("quota jnlpba 0 3");
  EXPECT_EQ(reply.rfind("OK quota", 0), 0U) << reply;

  std::size_t admitted = 0, rejected = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    auto response =
        router.submit((*sentences_)[i], for_model("jnlpba")).get();
    if (response.status == serve::Status::kQuotaExceeded) {
      ++rejected;
      EXPECT_NE(response.error.find("jnlpba"), std::string::npos);
    } else {
      ASSERT_TRUE(response.ok()) << response.error;
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 3U);
  EXPECT_EQ(rejected, 2U);

  // The default tenant is untouched by the other tenant's bucket.
  EXPECT_TRUE(router.submit(sentences_->front(), for_model("")).get().ok());

  const auto snapshot = router.observability_snapshot();
  EXPECT_EQ(snapshot.counter_value("router.quota_rejected"), 2U);
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.quota_rejected"), 2U);
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.requests"), 3U);

  // "quota <name> off" lifts the limit.
  EXPECT_EQ(router.admin("quota jnlpba off").rfind("OK quota off", 0), 0U);
  EXPECT_TRUE(
      router.submit((*sentences_)[4], for_model("jnlpba")).get().ok());
  router.stop();
}

TEST_F(TenantTier, AdminModelVerbsManageResidencyOverTheWire) {
  Router router(*model_, small_config(1));

  // list: starts with the default tenant.
  std::string list = router.admin("model list");
  EXPECT_EQ(list.rfind("default\tdefault", 0), 0U) << list;

  // add from a saved file, then list shows it and requests route to it.
  const std::string path = ::testing::TempDir() + "tenant_admin_add.gmm";
  (*alt_model_)->save_mmap_file(path);
  const std::string added = router.admin("model add jnlpba " + path);
  EXPECT_EQ(added.rfind("OK model jnlpba resident", 0), 0U) << added;
  list = router.admin("model list");
  EXPECT_NE(list.find("jnlpba\tadded"), std::string::npos) << list;
  auto routed = router.submit(sentences_->front(), for_model("jnlpba")).get();
  ASSERT_TRUE(routed.ok()) << routed.error;
  EXPECT_EQ(routed.tags, (*alt_expected_)[0]);

  // Duplicate add and invalid names are structured errors.
  EXPECT_EQ(router.admin("model add jnlpba " + path).rfind("ERROR", 0), 0U);
  EXPECT_EQ(router.admin("model add bad/name " + path).rfind("ERROR", 0), 0U);
  EXPECT_EQ(router.admin("model add onlyname").rfind("ERROR", 0), 0U);
  EXPECT_EQ(router.admin("model nonsense").rfind("ERROR", 0), 0U);

  // drop: the tenant disappears; the default cannot be dropped.
  EXPECT_EQ(router.admin("model drop jnlpba").rfind("OK dropped", 0), 0U);
  auto gone = router.submit(sentences_->front(), for_model("jnlpba")).get();
  EXPECT_EQ(gone.status, serve::Status::kUnknownModel);
  EXPECT_EQ(router.admin("model drop default").rfind("ERROR", 0), 0U);
  router.stop();
}

TEST_F(TenantTier, AdminModelSwapReplacesOneTenantInPlace) {
  Router router(*model_, small_config(1));
  router.add_model("jnlpba", *alt_model_);

  // Warm the tenant's cache under the old generation, then swap the
  // tenant to the *default* model's weights.
  ASSERT_TRUE(router.submit(sentences_->front(), for_model("jnlpba")).get().ok());
  const std::string path = ::testing::TempDir() + "tenant_admin_swap.gmm";
  (*model_)->save_mmap_file(path);
  const std::string swapped = router.admin("model swap jnlpba " + path);
  EXPECT_EQ(swapped.rfind("OK swapped model jnlpba", 0), 0U) << swapped;

  // The repeat is a miss (old generation invalidated) and decodes under
  // the swapped-in weights; the default tenant is untouched.
  auto response = router.submit(sentences_->front(), for_model("jnlpba")).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_FALSE(response.coalesced);
  EXPECT_EQ(response.tags, (*expected_)[0]);
  auto untouched = router.submit(sentences_->front(), for_model("")).get();
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(untouched.tags, (*expected_)[0]);
  router.stop();
}

TEST_F(TenantTier, SocketConnectionSelectsModelsPerRequestAndPerConnection) {
  Router router(*model_, small_config(2));
  router.add_model("jnlpba", *alt_model_);
  serve::SocketServer server(router, {});
  server.start();

  serve::ClientConnection connection;
  connection.connect("127.0.0.1", server.port());

  const auto text_of = [&](const text::Sentence& sentence) {
    std::string text;
    for (const auto& token : sentence.tokens) text += token + " ";
    return text;
  };
  const auto& sentence = sentences_->front();

  // Pipelined interleave on ONE connection: per-request '#' suffix.
  connection.send_line("a1\t" + text_of(sentence));
  connection.send_line("a2#jnlpba\t" + text_of(sentence));
  connection.send_line(
      "{\"id\": \"a3\", \"model\": \"jnlpba\", \"tokens\": [\"p53\"]}");
  std::string default_reply, alt_reply, json_reply;
  ASSERT_TRUE(connection.recv_line(default_reply));
  ASSERT_TRUE(connection.recv_line(alt_reply));
  ASSERT_TRUE(connection.recv_line(json_reply));
  EXPECT_EQ(serve::response_status(default_reply), "OK") << default_reply;
  EXPECT_EQ(serve::response_status(alt_reply), "OK") << alt_reply;
  // The 11-label tenant answers with typed tag names; the default with
  // the legacy three. Byte-level cross-contamination would surface here.
  EXPECT_EQ(alt_reply.find("\tB\t"), std::string::npos);
  EXPECT_EQ(json_reply.rfind("{\"id\":\"a3\",\"status\":\"ok\"", 0), 0U)
      << json_reply;

  // "#MODEL jnlpba" makes the selector the connection default; "#MODEL
  // off" restores bare semantics. Control lines answer nothing.
  connection.send_line("#MODEL jnlpba");
  connection.send_line("b1\t" + text_of(sentence));
  std::string conn_default_reply;
  ASSERT_TRUE(connection.recv_line(conn_default_reply));
  EXPECT_EQ(serve::response_status(conn_default_reply), "OK");
  EXPECT_EQ(conn_default_reply.substr(0, 3), "b1\t");

  connection.send_line("c1#ghost\t" + text_of(sentence));
  std::string unknown_reply;
  ASSERT_TRUE(connection.recv_line(unknown_reply));
  EXPECT_EQ(serve::response_status(unknown_reply), "UNKNOWN_MODEL")
      << unknown_reply;

  connection.send_line("#MODEL off");
  connection.send_line("d1\t" + text_of(sentence));
  std::string restored_reply;
  ASSERT_TRUE(connection.recv_line(restored_reply));
  EXPECT_EQ(serve::response_status(restored_reply), "OK");

  server.stop();
  router.stop();
}

TEST_F(TenantTier, MixedTenantTrafficKeepsEveryConservationLaw) {
  Router router(*model_, small_config(2));
  router.add_model("jnlpba", *alt_model_);

  // Skewed mix with repeats: default sees each sentence twice, the added
  // tenant every 3rd sentence once.
  std::vector<std::future<serve::TagResponse>> futures;
  for (int round = 0; round < 2; ++round)
    for (const auto& sentence : *sentences_)
      futures.push_back(router.submit(sentence, for_model("")));
  for (std::size_t i = 0; i < sentences_->size(); i += 3)
    futures.push_back(router.submit((*sentences_)[i], for_model("jnlpba")));
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());

  const auto snapshot = router.observability_snapshot();
  const auto hits = snapshot.counter_value("cache.hits");
  const auto misses = snapshot.counter_value("cache.misses");
  EXPECT_EQ(snapshot.counter_value("router.requests"), hits + misses);
  std::uint64_t submitted = 0;
  for (std::size_t i = 0; i < router.replica_count(); ++i)
    submitted += snapshot.counter_value("replica." + std::to_string(i) +
                                        ".submitted");
  submitted += snapshot.counter_value("tenant.jnlpba.replica.0.submitted");
  EXPECT_EQ(submitted, misses - snapshot.counter_value("router.unavailable") +
                           snapshot.counter_value("router.failovers"));
  for (const std::string tenant : {"default", "jnlpba"})
    EXPECT_EQ(snapshot.counter_value("tenant." + tenant + ".requests"),
              snapshot.counter_value("tenant." + tenant + ".cache_hits") +
                  snapshot.counter_value("tenant." + tenant + ".cache_misses"))
        << tenant;
  router.stop();
}

// --- per-tenant health: every pool has its own breakers + supervisor -------

[[nodiscard]] double gauge_value(const obs::RegistrySnapshot& snapshot,
                                 const std::string& name) {
  for (const auto& gauge : snapshot.gauges)
    if (gauge.name == name) return gauge.value;
  return -1.0;
}

TEST_F(TenantTier, AddedTenantReplicaIsProbedBreakerOpensAndRevives) {
  RouterConfig config = small_config(1);
  config.tenant_replicas = 2;
  config.cache_enabled = false;  // every request reaches a replica
  // The probe threads sleep far past the test; probe_all() is driven by
  // hand for a deterministic drill.
  config.health.probe_interval = std::chrono::hours(1);
  config.health.probe_deadline = std::chrono::milliseconds(2000);
  config.health.failure_threshold = 2;
  config.health.revive_backoff.initial = std::chrono::milliseconds(1);
  config.health.revive_backoff.max = std::chrono::milliseconds(2);
  Router router(*model_, config);
  router.add_model("jnlpba", *alt_model_);
  const auto tenant = router.models().resolve("jnlpba");
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->supervisor, nullptr);

  // Every supervisor log line names the tenant whose pool it watches.
  const util::LogLevel level_before = util::log_level();
  std::vector<std::string> lines;  // appended under the logger's sink mutex
  util::set_log_level(util::LogLevel::kInfo);
  util::set_log_sink([&lines](util::LogLevel, std::string_view message) {
    lines.emplace_back(message);
  });

  tenant->replicas[0]->kill();
  tenant->supervisor->probe_all();  // failure 1 of 2: breaker still closed
  EXPECT_FALSE(tenant->breakers.is_open(0));
  tenant->supervisor->probe_all();  // failure 2 of 2: breaker opens
  EXPECT_TRUE(tenant->breakers.is_open(0));
  EXPECT_FALSE(tenant->breakers.is_open(1));
  EXPECT_EQ(gauge_value(router.observability_snapshot(),
                        "router.health.open_breakers"),
            1.0);

  // The tenant keeps answering, byte-identical, from its live replica.
  for (std::size_t i = 0; i < sentences_->size(); ++i) {
    auto response = router.submit((*sentences_)[i], for_model("jnlpba")).get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.tags, (*alt_expected_)[i]) << "sentence " << i;
  }

  // Half-open probe (past the tiny backoff) revives the dead replica and
  // closes its breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tenant->supervisor->probe_all();
  EXPECT_TRUE(tenant->replicas[0]->healthy());
  EXPECT_FALSE(tenant->breakers.is_open(0));

  util::set_log_sink(nullptr);  // restore the stderr default
  util::set_log_level(level_before);
  bool saw_open = false;
  for (const auto& line : lines) {
    if (line.find("supervisor[jnlpba]: breaker OPEN for replica 0") !=
        std::string::npos)
      saw_open = true;
    EXPECT_EQ(line.find("default"), std::string::npos) << line;
  }
  EXPECT_TRUE(saw_open);

  const auto snapshot = router.observability_snapshot();
  EXPECT_EQ(snapshot.counter_value("router.health.breaker_opens"), 1U);
  EXPECT_EQ(snapshot.counter_value("router.health.breaker_closes"), 1U);
  EXPECT_EQ(snapshot.counter_value("router.health.revives"), 1U);
  EXPECT_EQ(gauge_value(snapshot, "router.health.open_breakers"), 0.0);
  // Probes stay out of the request ledger: every replica submission is a
  // routed request.
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.replica.0.submitted") +
                snapshot.counter_value("tenant.jnlpba.replica.1.submitted"),
            sentences_->size());
  EXPECT_EQ(snapshot.counter_value("replica.0.submitted"), 0U);
  router.stop();
}

TEST_F(TenantTier, FailStaticIsScopedToItsTenant) {
  RouterConfig config = small_config(2);
  config.tenant_replicas = 2;
  config.cache_enabled = false;
  Router router(*model_, config);
  router.add_model("jnlpba", *alt_model_);
  const auto added = router.models().resolve("jnlpba");
  const auto deft = router.models().default_tenant();

  // Every breaker of the added tenant is open: it fails static and keeps
  // answering. The default tenant has one breaker open, and that breaker
  // must still route its traffic — fail-static is not tier-wide.
  added->breakers.set_open(0, true);
  added->breakers.set_open(1, true);
  deft->breakers.set_open(0, true);

  for (std::size_t i = 0; i < sentences_->size(); ++i) {
    auto alt = router.submit((*sentences_)[i], for_model("jnlpba")).get();
    ASSERT_TRUE(alt.ok()) << alt.error;
    EXPECT_EQ(alt.tags, (*alt_expected_)[i]) << "sentence " << i;
    auto d = router.submit((*sentences_)[i], for_model("")).get();
    ASSERT_TRUE(d.ok()) << d.error;
    EXPECT_EQ(d.tags, (*expected_)[i]) << "sentence " << i;
  }
  const auto snapshot = router.observability_snapshot();
  EXPECT_EQ(snapshot.counter_value("replica.0.submitted"), 0U);
  EXPECT_EQ(snapshot.counter_value("replica.1.submitted"), sentences_->size());
  EXPECT_EQ(snapshot.counter_value("tenant.jnlpba.replica.0.submitted") +
                snapshot.counter_value("tenant.jnlpba.replica.1.submitted"),
            sentences_->size());
  router.stop();
}

TEST_F(TenantTier, DroppingATenantWhileItsSupervisorProbesIsSafe) {
  // TSAN coverage: the added tenant's probe thread runs hot (1 ms) while
  // traffic flows to it and the tenant is dropped and re-added under it.
  RouterConfig config = small_config(1);
  config.tenant_replicas = 2;
  config.health.probe_interval = std::chrono::milliseconds(1);
  config.health.probe_deadline = std::chrono::milliseconds(500);
  config.health.failure_threshold = 1;
  config.health.revive_backoff.initial = std::chrono::milliseconds(1);
  config.health.revive_backoff.max = std::chrono::milliseconds(2);
  Router router(*model_, config);
  router.add_model("jnlpba", *alt_model_);

  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      EXPECT_EQ(router.admin("model drop jnlpba").rfind("OK dropped", 0), 0U);
      router.add_model("jnlpba", *alt_model_);
    }
    done.store(true);
  });
  std::size_t answered = 0;
  for (std::size_t i = 0; !done.load(); ++i) {
    auto response = router
                         .submit((*sentences_)[i % sentences_->size()],
                                 for_model("jnlpba"))
                         .get();
    if (response.ok()) {
      ++answered;
      EXPECT_EQ(response.tags, (*alt_expected_)[i % sentences_->size()]);
    } else {
      // Between drop and re-add the name is unknown; a request caught on a
      // dropped pool resolves UNAVAILABLE. Nothing else is acceptable.
      EXPECT_TRUE(response.status == serve::Status::kUnknownModel ||
                  response.status == serve::Status::kUnavailable)
          << serve::status_name(response.status) << ": " << response.error;
    }
  }
  churn.join();
  EXPECT_GT(answered, 0U);
  router.stop();
  EXPECT_GT(router.observability_snapshot().counter_value(
                "router.health.probes"),
            0U);
}

}  // namespace
}  // namespace graphner
