// Streaming statistics: Welford accumulators, summaries with confidence
// intervals, and simple ratio counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace rrnet::util {

/// Point summary of a sample: count, mean, stddev, extrema, and a normal
/// approximation half-width for a 95% confidence interval.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
  double ci95 = 0.0;  ///< half-width of the 95% CI on the mean (0 if count < 2)
};

/// Numerically stable single-pass mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean of the sample; NaN when empty.
  [[nodiscard]] double mean() const noexcept;
  /// Unbiased sample variance; 0 when count < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  [[nodiscard]] Summary summary() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::quiet_NaN();
  double max_ = std::numeric_limits<double>::quiet_NaN();
};

/// Counter for success/total ratios (e.g. delivery ratio).
class RatioCounter {
 public:
  void add(bool success) noexcept {
    ++total_;
    if (success) ++hits_;
  }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// hits/total; NaN when total == 0.
  [[nodiscard]] double ratio() const noexcept;

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace rrnet::util
