// Fixed-bin histogram + ASCII rendering: the bucket store inside
// obs::Histogram (src/obs/registry.hpp) and the Fig. 3 influence plots.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace graphner::util {

class Histogram {
 public:
  /// Uniform bins over [lo, hi); values outside are clamped to edge bins.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value) noexcept;

  /// Fold another histogram with the identical [lo, hi) x bins layout into
  /// this one. Throws std::invalid_argument on a layout mismatch. This is
  /// how obs::Histogram combines its per-thread shards and how snapshots
  /// merge; the histogram itself does no locking.
  void merge(const Histogram& other);

  /// q-quantile (q clamped to [0, 1]) with linear interpolation inside the
  /// containing bin; returns lo() when the histogram is empty. Values that
  /// were clamped into the edge bins report as edge-bin positions, so keep
  /// the range wide enough for the tail you care about.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double max_seen() const noexcept { return max_seen_; }

  /// Horizontal bar chart, `width` characters for the largest bin.
  void print(std::ostream& out, const std::string& title, std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  double sum_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace graphner::util
