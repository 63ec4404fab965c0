#include "benchmark/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace graphner::benchmark {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("%s %.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::fail(const std::string& what, std::uint64_t count) {
  std::cerr << "CHECK FAILED: " << what << '\n';
  correct_ = false;
  failed_ += count;
}

void Report::print_result(const std::vector<std::string>& keep) {
  std::string body;
  for (const std::string& name : keep) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      fail("metric " + name + " was not measured", 0);
      continue;
    }
    if (!std::isfinite(it->value)) {
      fail("metric " + name + " is not a finite number", 0);
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->value);
    body += (body.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
            value + ", \"unit\": \"" + it->unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), body.c_str());
  std::fflush(stdout);
}

}  // namespace graphner::benchmark
