// Process-wide metric registry: named counters, gauges and histograms
// (DESIGN.md §9).
//
// Every subsystem that used to carry its own ad-hoc instrumentation
// (serve::ServiceMetrics, per-phase training timers, one-off Stopwatch sums)
// now registers instruments here and reports through the shared
// exporters (src/obs/export.hpp). Design constraints, in order:
//
//   1. Hot-path cost. A counter bump is one *uncontended* relaxed RMW:
//      counters are sharded across cache-line-aligned atomic slots and a
//      thread always hits the shard assigned to it, so decode workers
//      never contend on a shared counter line. Gauges are a single
//      relaxed atomic store. Histogram records lock a per-thread-assigned
//      shard mutex (uncontended in steady state — the same discipline the
//      old per-worker serving metrics used) around a util::Histogram add.
//   2. Snapshot safety. snapshot() can run concurrently with any number
//      of writers (TSAN-clean); it sees each instrument at some point at
//      or after the writes that happened-before the snapshot call.
//   3. Stable handles. counter()/gauge()/histogram() return references
//      that stay valid for the registry's lifetime — resolve once at
//      setup, increment forever. Lookup takes the registry mutex and is
//      not for hot paths.
//
// Registry::global() is the process-wide instance (training pipeline,
// propagation, L-BFGS, checkpoints, graph construction). Subsystems that
// need isolated counts per instance — the serving metrics, every unit
// test — construct their own Registry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/histogram.hpp"

namespace graphner::obs {

/// One metric label (Prometheus-style key/value dimension).
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label&, const Label&) = default;
};

using Labels = std::vector<Label>;

namespace detail {
/// Stable small shard index for the calling thread. Threads are assigned
/// round-robin on first use; the index is shared by every instrument, so
/// a worker thread touches the same shard of every counter it bumps.
[[nodiscard]] std::size_t thread_shard() noexcept;
constexpr std::size_t kShards = 16;  // power of two; see thread_shard()
}  // namespace detail

/// Monotonic counter, sharded so concurrent increments from different
/// threads hit different cache lines.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    shards_[detail::thread_shard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// Last-value instrument (queue depth, current objective, residual).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// How recorded values map onto the fixed histogram bins.
enum class Scale {
  kLinear,    ///< bins directly over the raw value
  kLog10p1,   ///< bins over log10(1 + value): the serving-latency layout,
              ///< near-constant relative resolution from 1 to 10^hi - 1
};

struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t bins = 64;
  Scale scale = Scale::kLinear;
};

/// The serving-latency histogram layout: 256 bins over log10(1 + us) in
/// [0, 8) — ~7% relative resolution from 1 us to ~100 s.
[[nodiscard]] constexpr HistogramSpec latency_us_spec() noexcept {
  return HistogramSpec{0.0, 8.0, 256, Scale::kLog10p1};
}

/// Distribution instrument over util::Histogram buckets. record() takes
/// raw-domain values; quantiles and means come back out in the raw domain
/// regardless of the bin scale.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double raw_value) noexcept;

  /// Point-in-time copy, already merged across shards. Copyable and
  /// detached from the live instrument.
  struct Snapshot {
    HistogramSpec spec{};
    util::Histogram buckets{0.0, 1.0, 1};  ///< bin-domain (transformed) counts
    double sum = 0.0;                      ///< raw-domain sum

    [[nodiscard]] std::size_t count() const noexcept { return buckets.total(); }
    [[nodiscard]] double mean() const noexcept;
    /// Raw-domain quantile (inverse of the bin transform).
    [[nodiscard]] double quantile(double q) const noexcept;
    [[nodiscard]] double max() const noexcept;

    void merge(const Snapshot& other);
  };

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] const HistogramSpec& spec() const noexcept { return spec_; }

 private:
  struct Shard {
    mutable std::mutex mutex;  ///< owner thread vs. snapshot; uncontended
    util::Histogram buckets;
    double sum = 0.0;
    explicit Shard(const HistogramSpec& spec)
        : buckets(spec.lo, spec.hi, spec.bins) {}
  };

  HistogramSpec spec_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// --- Snapshots --------------------------------------------------------------

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  Histogram::Snapshot data;
};

/// Point-in-time view of a whole registry: plain data, copyable, and
/// composable — scrape handlers merge the serve registry, the global
/// registry and derived samples (fault-injector fire counts) into one
/// snapshot before exporting.
struct RegistrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Append every sample of `other`, with `prefix` prepended to each name
  /// (pass "" for none). Used to namespace the serve registry as
  /// "serve.*" next to the process-global instruments.
  void append(const RegistrySnapshot& other, const std::string& prefix = "");

  /// Fold `other` into this snapshot by (name, labels): counters add,
  /// gauges take `other`'s (newer) value, histograms merge bucket-wise
  /// (std::invalid_argument on a layout mismatch). Samples new to this
  /// snapshot are appended in `other`'s order, so repeated folds keep the
  /// first-seen order. This is what keeps a replica's metrics monotone
  /// across the services it retires.
  void merge(const RegistrySnapshot& other);

  /// Value of a counter by (exact) name; 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const noexcept;
  /// Histogram by (exact) name; an empty snapshot when absent.
  [[nodiscard]] Histogram::Snapshot histogram(const std::string& name) const;
};

/// Named-instrument registry. Instruments are created on first lookup and
/// live as long as the registry; repeated lookups with the same name (and
/// labels) return the same instrument.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (training pipeline, kernels, checkpoints).
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(const std::string& name, const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// `spec` is honoured on first creation; later lookups of the same name
  /// return the existing instrument (the spec must not conflict — throws
  /// std::invalid_argument on a layout mismatch).
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const HistogramSpec& spec,
                                     const Labels& labels = {});

  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  [[nodiscard]] Entry* find(const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
};

}  // namespace graphner::obs
