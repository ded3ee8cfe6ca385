#include "core/batch_means.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace grw {

std::vector<double> BatchFromCumulativeWeights(
    const std::vector<double>& now, std::vector<double>& prev) {
  std::vector<double> batch(now.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < now.size(); ++i) {
    batch[i] = now[i] - (i < prev.size() ? prev[i] : 0.0);
    total += batch[i];
  }
  if (total > 0.0) {
    for (double& b : batch) b /= total;
  }
  prev = now;
  return batch;
}

void BatchMeansAccumulator::AddBatch(
    const std::vector<double>& concentrations) {
  if (batches_ == 0) {
    stats_.resize(concentrations.size());
  } else if (stats_.size() != concentrations.size()) {
    throw std::invalid_argument(
        "BatchMeansAccumulator: batch length changed between AddBatch calls");
  }
  for (size_t i = 0; i < stats_.size(); ++i) stats_[i].Add(concentrations[i]);
  ++batches_;
}

std::vector<double> BatchMeansAccumulator::StandardErrors() const {
  std::vector<double> se(stats_.size(), 0.0);
  if (batches_ < 2) return se;
  for (size_t i = 0; i < stats_.size(); ++i) {
    se[i] = std::sqrt(stats_[i].SampleVariance() /
                      static_cast<double>(batches_));
  }
  return se;
}

double BatchMeansAccumulator::MaxRelativeError(
    const std::vector<double>& concentrations,
    double min_concentration) const {
  if (batches_ < 2) return std::numeric_limits<double>::infinity();
  const std::vector<double> se = StandardErrors();
  double max_rel = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < se.size() && i < concentrations.size(); ++i) {
    if (concentrations[i] < min_concentration || concentrations[i] <= 0.0) {
      continue;
    }
    const double rel = se[i] / concentrations[i];
    if (std::isnan(max_rel) || rel > max_rel) max_rel = rel;
  }
  return max_rel;
}

}  // namespace grw
