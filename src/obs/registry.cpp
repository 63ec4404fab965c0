#include "src/obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace graphner::obs {

namespace detail {

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

}  // namespace detail

namespace {

[[nodiscard]] double to_bins(Scale scale, double raw) noexcept {
  return scale == Scale::kLog10p1 ? std::log10(1.0 + std::max(0.0, raw)) : raw;
}

[[nodiscard]] double from_bins(Scale scale, double bin_value) noexcept {
  return scale == Scale::kLog10p1 ? std::pow(10.0, bin_value) - 1.0 : bin_value;
}

}  // namespace

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(HistogramSpec spec) : spec_(spec) {
  shards_.reserve(detail::kShards);
  for (std::size_t i = 0; i < detail::kShards; ++i)
    shards_.push_back(std::make_unique<Shard>(spec_));
}

void Histogram::record(double raw_value) noexcept {
  Shard& shard = *shards_[detail::thread_shard()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.buckets.add(to_bins(spec_.scale, raw_value));
  shard.sum += spec_.scale == Scale::kLog10p1 ? std::max(0.0, raw_value)
                                              : raw_value;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.spec = spec_;
  out.buckets = util::Histogram(spec_.lo, spec_.hi, spec_.bins);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.buckets.merge(shard->buckets);
    out.sum += shard->sum;
  }
  return out;
}

double Histogram::Snapshot::mean() const noexcept {
  return buckets.total() == 0 ? 0.0
                              : sum / static_cast<double>(buckets.total());
}

double Histogram::Snapshot::quantile(double q) const noexcept {
  return buckets.total() == 0 ? 0.0
                              : from_bins(spec.scale, buckets.quantile(q));
}

double Histogram::Snapshot::max() const noexcept {
  return buckets.total() == 0 ? 0.0
                              : from_bins(spec.scale, buckets.max_seen());
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  buckets.merge(other.buckets);  // throws on layout mismatch
  sum += other.sum;
}

// --- RegistrySnapshot -------------------------------------------------------

void RegistrySnapshot::append(const RegistrySnapshot& other,
                              const std::string& prefix) {
  for (const auto& c : other.counters)
    counters.push_back({prefix + c.name, c.labels, c.value});
  for (const auto& g : other.gauges)
    gauges.push_back({prefix + g.name, g.labels, g.value});
  for (const auto& h : other.histograms)
    histograms.push_back({prefix + h.name, h.labels, h.data});
}

namespace {

/// Fold each sample of `from` into the sample of `into` with the same
/// (name, labels), or append it when there is none.
template <typename Sample, typename Fold>
void merge_samples(std::vector<Sample>& into, const std::vector<Sample>& from,
                   Fold fold) {
  for (const auto& sample : from) {
    const auto same = [&](const Sample& existing) {
      return existing.name == sample.name && existing.labels == sample.labels;
    };
    if (const auto it = std::find_if(into.begin(), into.end(), same);
        it != into.end())
      fold(*it, sample);
    else
      into.push_back(sample);
  }
}

}  // namespace

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  merge_samples(counters, other.counters,
                [](CounterSample& into, const CounterSample& from) {
                  into.value += from.value;
                });
  merge_samples(gauges, other.gauges,
                [](GaugeSample& into, const GaugeSample& from) {
                  into.value = from.value;  // newer observation wins
                });
  merge_samples(histograms, other.histograms,
                [](HistogramSample& into, const HistogramSample& from) {
                  into.data.merge(from.data);
                });
}

std::uint64_t RegistrySnapshot::counter_value(
    const std::string& name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

Histogram::Snapshot RegistrySnapshot::histogram(const std::string& name) const {
  for (const auto& h : histograms)
    if (h.name == name) return h.data;
  return {};
}

// --- Registry ---------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::Entry* Registry::find(const std::string& name, const Labels& labels) {
  for (auto& entry : entries_)
    if (entry->name == name && entry->labels == labels) return entry.get();
  return nullptr;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* entry = find(name, labels)) {
    if (!entry->counter)
      throw std::invalid_argument("obs: '" + name +
                                  "' already registered as a non-counter");
    return *entry->counter;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->counter = std::make_unique<Counter>();
  Counter& out = *entry->counter;
  entries_.push_back(std::move(entry));
  return out;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* entry = find(name, labels)) {
    if (!entry->gauge)
      throw std::invalid_argument("obs: '" + name +
                                  "' already registered as a non-gauge");
    return *entry->gauge;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->gauge = std::make_unique<Gauge>();
  Gauge& out = *entry->gauge;
  entries_.push_back(std::move(entry));
  return out;
}

Histogram& Registry::histogram(const std::string& name,
                               const HistogramSpec& spec, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* entry = find(name, labels)) {
    if (!entry->histogram)
      throw std::invalid_argument("obs: '" + name +
                                  "' already registered as a non-histogram");
    const HistogramSpec& have = entry->histogram->spec();
    if (have.lo != spec.lo || have.hi != spec.hi || have.bins != spec.bins ||
        have.scale != spec.scale)
      throw std::invalid_argument("obs: histogram '" + name +
                                  "' re-registered with a different layout");
    return *entry->histogram;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->histogram = std::make_unique<Histogram>(spec);
  Histogram& out = *entry->histogram;
  entries_.push_back(std::move(entry));
  return out;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->counter)
      out.counters.push_back({entry->name, entry->labels, entry->counter->value()});
    else if (entry->gauge)
      out.gauges.push_back({entry->name, entry->labels, entry->gauge->value()});
    else if (entry->histogram)
      out.histograms.push_back(
          {entry->name, entry->labels, entry->histogram->snapshot()});
  }
  return out;
}

}  // namespace graphner::obs
