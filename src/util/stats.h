// Streaming statistics and the NRMSE accuracy metric used throughout the
// paper's evaluation (Section 6.1).

#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace grw {

/// Welford streaming mean/variance accumulator.
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  size_t Count() const { return n_; }
  double Mean() const { return mean_; }

  /// Population variance (divides by n). Returns 0 for n < 1.
  double Variance() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }

  /// Unbiased sample variance (divides by n-1). Returns 0 for n < 2.
  double SampleVariance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  double Stddev() const { return std::sqrt(Variance()); }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Normalized root mean square error of a set of estimates against the
/// ground truth:
///   NRMSE = sqrt(E[(est - truth)^2]) / truth
///         = sqrt(Var[est] + (truth - E[est])^2) / truth.
/// Combines variance and bias, exactly as defined in Section 6.1.
/// Returns NaN when truth == 0 or there are no estimates.
inline double Nrmse(const std::vector<double>& estimates, double truth) {
  if (estimates.empty() || truth == 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double sum_sq = 0.0;
  for (double e : estimates) {
    const double d = e - truth;
    sum_sq += d * d;
  }
  return std::sqrt(sum_sq / static_cast<double>(estimates.size())) /
         std::abs(truth);
}

/// Mean of a vector; NaN if empty.
inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Unbiased sample standard deviation; 0 if fewer than two values.
inline double SampleStddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

/// Pearson chi-square statistic sum (obs - exp)^2 / exp over cells with
/// exp > 0. `observed` are counts, `expected` are expected counts on the
/// same cells (vectors must be the same length). Used by the statistical
/// goodness-of-fit tests for the random walks.
inline double ChiSquareStatistic(const std::vector<double>& observed,
                                 const std::vector<double>& expected) {
  double stat = 0.0;
  for (size_t i = 0; i < observed.size() && i < expected.size(); ++i) {
    if (expected[i] <= 0.0) continue;
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

/// Upper critical value of the chi-square distribution with `df` degrees
/// of freedom at upper-tail z-score `z` (e.g. z = 3.09 for alpha ~ 0.001),
/// via the Wilson-Hilferty cube approximation — accurate to a few percent
/// for df >= 3, which is all the goodness-of-fit tests need.
inline double ChiSquareCriticalValue(int df, double z) {
  const double d = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

}  // namespace grw
