#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace rrnet::util {

void Accumulator::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double Accumulator::mean() const noexcept {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : mean_;
}

double Accumulator::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

Summary Accumulator::summary() const noexcept {
  Summary s;
  s.count = n_;
  s.mean = mean();
  s.stddev = stddev();
  s.min = min_;
  s.max = max_;
  // ci95 is pinned to 0 for n < 2: a half-width is meaningless for a single
  // observation and must never leak NaN into serialized sweep tables.
  if (n_ >= 2) {
    s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(n_));
  }
  return s;
}

double RatioCounter::ratio() const noexcept {
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(hits_) / static_cast<double>(total_);
}

}  // namespace rrnet::util
