// Metric bookkeeping and the result line.
//
// Every metric is printed as "name value unit" as soon as the run has it.
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, where "metrics" holds the end-to-end metrics of
// BENCHMARK.json on an untraced run and its per-layer metrics on a traced
// one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace graphner::benchmark {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
/// Sorts `values`.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
/// Median of a copy of `values`.
[[nodiscard]] double median(std::vector<double> values);

class Report {
 public:
  /// Record and print one metric.
  void add(const std::string& name, double value, const std::string& unit);

  /// A failed correctness check: printed to stderr, and the run is not
  /// correct. `count` failures join the failed total.
  void fail(const std::string& what, std::uint64_t count = 1);

  void attempt(std::uint64_t count) noexcept { attempted_ += count; }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Print the JSON result line with the metrics named in `keep`. Each
  /// must have been added with a finite value; one that was not is left
  /// out and makes the run incorrect.
  void print_result(const std::vector<std::string>& keep);

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace graphner::benchmark
