// Tests for the observability layer (src/obs): sharded counters, gauges,
// log-domain histograms, the named-instrument registry, trace spans with
// nesting + capture, the three exporters and the token bucket. The
// concurrent cases double as the TSAN targets for snapshot-vs-writer and
// quota-toggle-vs-acquire races (CI runs every Obs* test under
// ThreadSanitizer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/export.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/span.hpp"
#include "src/obs/token_bucket.hpp"
#include "src/util/logging.hpp"

namespace graphner {
namespace {

TEST(ObsCounterTest, ConcurrentIncrementsAreExact) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.inc(42);
  EXPECT_EQ(counter.value(), kThreads * kPerThread + 42);
}

TEST(ObsGaugeTest, SetOverwrites) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(ObsHistogramTest, LinearQuantilesAndMean) {
  obs::Histogram histogram({0.0, 100.0, 100, obs::Scale::kLinear});
  for (int i = 0; i < 100; ++i) histogram.record(i + 0.5);
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count(), 100u);
  EXPECT_NEAR(snapshot.mean(), 50.0, 1e-9);  // sum is exact (raw domain)
  EXPECT_NEAR(snapshot.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(snapshot.quantile(0.95), 95.0, 2.0);
  EXPECT_NEAR(snapshot.max(), 100.0, 2.0);
}

TEST(ObsHistogramTest, LogScaleQuantilesComeBackInRawDomain) {
  obs::Histogram histogram(obs::latency_us_spec());
  for (int i = 0; i < 1000; ++i) histogram.record(1000.0);
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count(), 1000u);
  EXPECT_NEAR(snapshot.mean(), 1000.0, 1e-6);
  // 256 bins over log10(1+us) in [0,8) is ~7.5% relative resolution.
  EXPECT_NEAR(snapshot.quantile(0.5), 1000.0, 90.0);
  EXPECT_NEAR(snapshot.max(), 1000.0, 90.0);
}

TEST(ObsHistogramTest, ConcurrentRecordsAllCounted) {
  obs::Histogram histogram(obs::latency_us_spec());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        histogram.record(10.0 * (t + 1));
    });
  for (auto& thread : threads) thread.join();
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_NEAR(snapshot.mean(), 25.0, 1e-6);  // mean of 10,20,30,40
}

TEST(ObsRegistryTest, SameNameReturnsSameInstrument) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("requests");
  a.inc(3);
  EXPECT_EQ(&registry.counter("requests"), &a);
  EXPECT_EQ(registry.counter("requests").value(), 3u);
  // Labels are part of the identity.
  obs::Counter& labelled = registry.counter("requests", {{"kind", "tsv"}});
  EXPECT_NE(&labelled, &a);
  EXPECT_EQ(labelled.value(), 0u);
}

TEST(ObsRegistryTest, HistogramSpecConflictThrows) {
  obs::Registry registry;
  (void)registry.histogram("lat", obs::latency_us_spec());
  EXPECT_NO_THROW((void)registry.histogram("lat", obs::latency_us_spec()));
  EXPECT_THROW(
      (void)registry.histogram("lat", {0.0, 1.0, 8, obs::Scale::kLinear}),
      std::invalid_argument);
}

TEST(ObsRegistryTest, SnapshotConsistentUnderConcurrentWrites) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("work");
  obs::Gauge& gauge = registry.gauge("level");
  obs::Histogram& histogram =
      registry.histogram("lat_us", obs::latency_us_spec());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.inc();
        gauge.set(static_cast<double>(++i));
        histogram.record(50.0);
      }
    });
  // Counters are monotonic, so successive snapshots must never go back.
  std::uint64_t last = 0;
  for (int round = 0; round < 50; ++round) {
    const auto snapshot = registry.snapshot();
    const std::uint64_t now = snapshot.counter_value("work");
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(registry.snapshot().counter_value("work"), counter.value());
}

TEST(ObsSnapshotTest, AppendPrefixesEverySample) {
  obs::Registry serve_like;
  serve_like.counter("completed").inc(7);
  serve_like.gauge("queue_depth").set(3.0);
  (void)serve_like.histogram("queue_wait_us", obs::latency_us_spec());
  obs::Registry global_like;
  global_like.counter("train.runs").inc();

  obs::RegistrySnapshot merged;
  merged.append(serve_like.snapshot(), "serve.");
  merged.append(global_like.snapshot());
  EXPECT_EQ(merged.counter_value("serve.completed"), 7u);
  EXPECT_EQ(merged.counter_value("train.runs"), 1u);
  EXPECT_EQ(merged.counter_value("completed"), 0u);  // absent → 0
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].name, "serve.queue_depth");
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].name, "serve.queue_wait_us");
}

TEST(ObsSpanTest, NestingAndAttributesAreRecorded) {
  obs::SpanCapture capture;
  {
    obs::ScopedSpan outer("phase.outer");
    outer.attr("sentences", std::uint64_t{12});
    {
      obs::ScopedSpan inner("phase.inner");
      inner.attr("note", "deep");
      inner.attr("residual", 0.5);
    }
  }
  const auto& records = capture.records();
  ASSERT_EQ(records.size(), 2u);  // inner closes first
  const auto& inner = records[0];
  const auto& outer = records[1];
  EXPECT_EQ(inner.name, "phase.inner");
  EXPECT_EQ(outer.name, "phase.outer");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_GE(outer.duration_seconds, inner.duration_seconds);
  ASSERT_EQ(inner.attrs.size(), 2u);
  EXPECT_EQ(inner.attrs[0].key, "note");
  EXPECT_EQ(inner.attrs[0].value, "deep");
  ASSERT_EQ(outer.attrs.size(), 1u);
  EXPECT_EQ(outer.attrs[0].key, "sentences");
  EXPECT_EQ(outer.attrs[0].value, "12");
}

TEST(ObsSpanTest, CloseIsIdempotentAndReturnsDuration) {
  obs::SpanCapture capture;
  obs::ScopedSpan span("phase.once");
  const double first = span.close();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.close(), first);   // second close: same value, no re-record
  EXPECT_EQ(span.seconds(), first);
  EXPECT_EQ(capture.records().size(), 1u);
  EXPECT_NEAR(capture.total_seconds("phase.once"), first, 1e-12);
}

TEST(ObsSpanTest, CaptureSumsRepeatedSpans) {
  obs::SpanCapture capture;
  double expected = 0.0;
  for (int i = 0; i < 3; ++i) {
    obs::ScopedSpan span("phase.repeat");
    expected += span.close();
  }
  EXPECT_NEAR(capture.total_seconds("phase.repeat"), expected, 1e-12);
  EXPECT_EQ(capture.total_seconds("phase.absent"), 0.0);
}

TEST(ObsSpanTest, TraceDrainMovesRecordsOutOnce) {
  (void)obs::Trace::global().drain();  // clear anything earlier tests left
  { obs::ScopedSpan span("drain.probe"); }
  const auto drained = obs::Trace::global().drain();
  std::size_t probes = 0;
  for (const auto& record : drained)
    if (record.name == "drain.probe") ++probes;
  EXPECT_EQ(probes, 1u);
  for (const auto& record : obs::Trace::global().drain())
    EXPECT_NE(record.name, "drain.probe");  // a drain empties the rings
}

TEST(ObsSpanTest, RingOverwritesOldestAndCountsDrops) {
  (void)obs::Trace::global().drain();
  const std::uint64_t dropped_before = obs::Trace::global().dropped();
  obs::Trace::global().set_ring_capacity(4);
  // Capacity applies to threads registering after the call, so spawn one.
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) obs::ScopedSpan span("ring.flood");
  });
  recorder.join();
  obs::Trace::global().set_ring_capacity(1024);
  std::size_t kept = 0;
  for (const auto& record : obs::Trace::global().drain())
    if (record.name == "ring.flood") ++kept;
  EXPECT_EQ(kept, 4u);
  EXPECT_EQ(obs::Trace::global().dropped() - dropped_before, 6u);
}

TEST(ObsExportTest, PrometheusEscapesLabelValues) {
  EXPECT_EQ(obs::prometheus_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(obs::prometheus_escape("plain"), "plain");
}

TEST(ObsExportTest, PrometheusNamesAreSanitized) {
  EXPECT_EQ(obs::prometheus_name("serve.queue_wait_us"),
            "graphner_serve_queue_wait_us");
  EXPECT_EQ(obs::prometheus_name("fault.knn-build.fires"),
            "graphner_fault_knn_build_fires");
}

TEST(ObsExportTest, PrometheusOutputHasTypedSeries) {
  obs::Registry registry;
  registry.counter("completed", {{"path", "a\"b"}}).inc(5);
  registry.gauge("queue_depth").set(2.0);
  obs::Histogram& histogram =
      registry.histogram("decode_us", obs::latency_us_spec());
  histogram.record(100.0);
  histogram.record(200.0);
  const std::string text = obs::export_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE graphner_completed counter"), std::string::npos);
  EXPECT_NE(text.find("graphner_completed{path=\"a\\\"b\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE graphner_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("graphner_queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE graphner_decode_us summary"), std::string::npos);
  EXPECT_NE(text.find("graphner_decode_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("graphner_decode_us_sum 300"), std::string::npos);
  EXPECT_NE(text.find("graphner_decode_us_count 2"), std::string::npos);
}

TEST(ObsExportTest, JsonCoversPopulatedRegistry) {
  obs::Registry registry;
  registry.counter("completed").inc(9);
  registry.counter("by_kind", {{"kind", "x"}}).inc(1);
  registry.gauge("queue_depth").set(4.5);
  registry.histogram("wait_us", obs::latency_us_spec()).record(50.0);
  const std::string json = obs::export_json(registry.snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":9"), std::string::npos);
  EXPECT_NE(json.find("\"by_kind{kind=x}\":1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":4.5"), std::string::npos);
  EXPECT_NE(json.find("\"wait_us\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(ObsExportTest, TsvFlattensHistogramsAndIsGreppable) {
  obs::Registry registry;
  registry.counter("submitted").inc(3);
  registry.gauge("queue_depth").set(1.0);
  obs::Histogram& histogram =
      registry.histogram("wait_us", obs::latency_us_spec());
  histogram.record(10.0);
  histogram.record(20.0);
  const std::string tsv = obs::export_tsv(registry.snapshot());
  EXPECT_NE(tsv.find("submitted\t3"), std::string::npos);
  EXPECT_NE(tsv.find("queue_depth\t1"), std::string::npos);
  EXPECT_NE(tsv.find("wait_us.count\t2"), std::string::npos);
  EXPECT_NE(tsv.find("wait_us.mean\t15"), std::string::npos);
  EXPECT_NE(tsv.find("wait_us.p50\t"), std::string::npos);
  EXPECT_NE(tsv.find("wait_us.max\t"), std::string::npos);
  EXPECT_TRUE(tsv.empty() || tsv.back() != '\n');
}

TEST(ObsExportTest, SpansExportAsJsonArray) {
  obs::SpanCapture capture;
  {
    obs::ScopedSpan span("export.probe");
    span.attr("k", "v");
  }
  const std::string json = obs::export_spans_json(capture.records());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"export.probe\""), std::string::npos);
  EXPECT_NE(json.find("\"attrs\":{\"k\":\"v\"}"), std::string::npos);
}

TEST(ObsTimingsTest, CaptureSumsPhaseSpansByName) {
  obs::SpanCapture capture;
  double brown = 0.0;
  {
    obs::ScopedSpan span("train.brown");
    brown += span.close();
  }
  {
    obs::ScopedSpan span("train.brown");  // repeated phases sum
    brown += span.close();
  }
  double encode = 0.0;
  {
    obs::ScopedSpan span("train.encode");
    encode = span.close();
  }
  EXPECT_NEAR(capture.total_seconds("train.brown"), brown, 1e-12);
  EXPECT_NEAR(capture.total_seconds("train.encode"), encode, 1e-12);
  EXPECT_EQ(capture.total_seconds("train.word2vec"), 0.0);  // never ran
  EXPECT_EQ(capture.total_seconds("train.crf"), 0.0);
}

TEST(ObsLoggingTest, DebugSinkSeesSpanOpenAndCloseLines) {
  const util::LogLevel level_before = util::log_level();
  std::vector<std::string> lines;
  util::set_log_level(util::LogLevel::kDebug);
  util::set_log_sink([&lines](util::LogLevel, std::string_view message) {
    lines.emplace_back(message);
  });
  { obs::ScopedSpan span("logged.phase"); }
  util::set_log_sink(nullptr);  // restore stderr default
  util::set_log_level(level_before);
  bool saw_open = false;
  bool saw_close = false;
  for (const auto& line : lines) {
    if (line.find("span open") != std::string::npos &&
        line.find("logged.phase") != std::string::npos)
      saw_open = true;
    if (line.find("span close") != std::string::npos &&
        line.find("logged.phase") != std::string::npos)
      saw_close = true;
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_close);
}

TEST(ObsTokenBucket, ConfigureRemoveRaceWithAcquire) {
  constexpr int kBurst = 64;
  constexpr int kAcquirers = 4;
  obs::TokenBucket bucket;
  std::atomic<bool> stop{false};
  std::vector<std::thread> acquirers;
  for (int t = 0; t < kAcquirers; ++t)
    acquirers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) (void)bucket.try_acquire();
    });
  std::thread toggler([&] {
    for (int round = 0; round < 500; ++round) {
      bucket.configure(0.0, kBurst);
      bucket.remove();
    }
  });
  toggler.join();
  stop.store(true);
  for (auto& thread : acquirers) thread.join();

  // The toggler's last call was remove(): the bucket admits everything.
  EXPECT_FALSE(bucket.limited());
  for (int i = 0; i < 10 * kBurst; ++i) ASSERT_TRUE(bucket.try_acquire());

  // A final configure(0, N) admits exactly N, however the acquirers race.
  bucket.configure(0.0, kBurst);
  std::atomic<int> admitted{0};
  acquirers.clear();
  for (int t = 0; t < kAcquirers; ++t)
    acquirers.emplace_back([&] {
      for (int i = 0; i < kBurst; ++i)
        if (bucket.try_acquire()) admitted.fetch_add(1);
    });
  for (auto& thread : acquirers) thread.join();
  EXPECT_EQ(admitted.load(), kBurst);
  EXPECT_FALSE(bucket.try_acquire());
}

}  // namespace
}  // namespace graphner
