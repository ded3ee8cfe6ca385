// Monte-Carlo standard errors for the estimator via batch means.
//
// The SLLN guarantees convergence (Theorem 1) and Theorem 3 bounds the
// needed steps, but a practitioner crawling a live OSN has neither the
// ground truth nor the mixing time. The standard MCMC answer is the batch
// means method (Geyer): split the chain into B contiguous batches, form
// the concentration estimate within each batch, and use the across-batch
// spread of these (asymptotically independent) estimates as a standard
// error for the full-chain estimate.

#pragma once

#include <cstdint>
#include <vector>

#include "util/stats.h"

namespace grw {

/// Within-batch concentration vector from cumulative weight snapshots:
/// batch_i = (now_i - prev_i) / sum_j (now_j - prev_j), all zero when no
/// weight accrued in the batch. `prev` entries beyond its length count
/// as zero (first batch), and `prev` is updated to `now`.
std::vector<double> BatchFromCumulativeWeights(
    const std::vector<double>& now, std::vector<double>& prev);

/// Online batch-means accumulator: feed one concentration vector per
/// batch (a contiguous chain segment, or a whole independent chain — any
/// asymptotically independent replicate), read back standard errors of
/// the across-batch mean. This is the convergence monitor behind the
/// estimation engine's early stopping (engine/engine.h): the engine
/// treats every (chain, round) segment as a batch and stops when the
/// relative standard error of every non-negligible concentration is
/// below the target.
class BatchMeansAccumulator {
 public:
  /// Registers one batch. Every batch must have the same length
  /// (throws std::invalid_argument otherwise).
  void AddBatch(const std::vector<double>& concentrations);

  int NumBatches() const { return batches_; }
  size_t NumTypes() const { return stats_.size(); }

  /// Batch-means standard error per type: sample stddev of the per-batch
  /// values divided by sqrt(B). Zero until two batches were added.
  std::vector<double> StandardErrors() const;

  /// Largest relative standard error SE_i / c_i over types whose mean
  /// concentration is at least `min_concentration` (rarer types carry
  /// too little signal to gate on). Infinity until two batches; NaN when
  /// no type clears the floor.
  double MaxRelativeError(const std::vector<double>& concentrations,
                          double min_concentration) const;

 private:
  std::vector<RunningStat> stats_;  // per type, across batches
  int batches_ = 0;
};

}  // namespace grw
