// Tests for batch-means error bars: the accumulator, and the standard
// errors the estimation engine reports from it.

#include "core/batch_means.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "engine/engine.h"
#include "exact/exact.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graphlet/catalog.h"
#include "util/rng.h"

namespace grw {
namespace {

// One engine chain of `steps` transitions in 20 rounds: the engine's
// batch-means standard errors then come from 20 batches of that chain.
EngineResult RunOneChain(const Graph& g, const EstimatorConfig& config,
                         uint64_t steps, uint64_t seed) {
  EngineOptions options;
  options.chains = 1;
  options.max_steps = steps;
  options.round_steps = steps / 20;
  options.base_seed = seed;
  return EstimationEngine(g, config, options).Run();
}

TEST(BatchMeansTest, ErrorBarsCoverTheTruthMostOfTheTime) {
  Rng rng(19);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
  const auto truth = ExactConcentrations(g, 3);
  const GraphletCatalog& c3 = GraphletCatalog::ForSize(3);
  const int triangle = c3.IdByName("triangle");

  int covered = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const EngineResult est = RunOneChain(
        g, EstimatorConfig{3, 1, true, false}, 40000, 700 + trial);
    ASSERT_EQ(est.rounds, 20);
    // 3-sigma interval; batch means underestimates slightly on short
    // correlated chains, so ask for a generous coverage level.
    if (std::abs(est.merged.concentrations[triangle] - truth[triangle]) <=
        3.0 * est.standard_errors[triangle]) {
      ++covered;
    }
  }
  EXPECT_GE(covered, trials * 7 / 10);
}

TEST(BatchMeansTest, ErrorsShrinkWithMoreSteps) {
  Rng rng(21);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 4, 0.5, rng));
  const GraphletCatalog& c3 = GraphletCatalog::ForSize(3);
  const int triangle = c3.IdByName("triangle");
  double short_se = 0.0;
  double long_se = 0.0;
  const int reps = 8;
  for (int r = 0; r < reps; ++r) {
    short_se += RunOneChain(g, EstimatorConfig{3, 1, false, false}, 4000,
                            40 + r)
                    .standard_errors[triangle] /
                reps;
    long_se += RunOneChain(g, EstimatorConfig{3, 1, false, false}, 64000,
                           80 + r)
                   .standard_errors[triangle] /
               reps;
  }
  // 16x the steps should shrink the error by roughly 4x; require 2x.
  EXPECT_LT(long_se, short_se / 2.0);
}

TEST(BatchMeansAccumulatorTest, StandardErrorsMatchClosedForm) {
  BatchMeansAccumulator acc;
  EXPECT_EQ(acc.NumBatches(), 0);
  EXPECT_TRUE(acc.StandardErrors().empty());
  acc.AddBatch({0.2, 0.8});
  // One batch: no spread information yet.
  EXPECT_EQ(acc.StandardErrors(), (std::vector<double>{0.0, 0.0}));
  acc.AddBatch({0.4, 0.6});
  EXPECT_EQ(acc.NumBatches(), 2);
  // Sample stddev of {0.2, 0.4} is sqrt(0.02); SE = sqrt(0.02 / 2) = 0.1.
  const auto se = acc.StandardErrors();
  ASSERT_EQ(se.size(), 2u);
  EXPECT_NEAR(se[0], 0.1, 1e-12);
  EXPECT_NEAR(se[1], 0.1, 1e-12);
}

TEST(BatchMeansAccumulatorTest, MaxRelativeErrorRespectsFloor) {
  BatchMeansAccumulator acc;
  acc.AddBatch({0.9, 0.1});
  EXPECT_TRUE(std::isinf(acc.MaxRelativeError({0.9, 0.1}, 1e-3)));
  acc.AddBatch({0.7, 0.3});
  // SE: type0 sd(0.9,0.7)=sqrt(0.02), /sqrt(2) -> 0.1; same for type1.
  // Relative: 0.1/0.8 = 0.125 vs 0.1/0.2 = 0.5 -> max 0.5.
  EXPECT_NEAR(acc.MaxRelativeError({0.8, 0.2}, 1e-3), 0.5, 1e-12);
  // Floor above type1's concentration drops it from the gate.
  EXPECT_NEAR(acc.MaxRelativeError({0.8, 0.2}, 0.5), 0.125, 1e-12);
  // Nothing above the floor: NaN (cannot assess convergence).
  EXPECT_TRUE(std::isnan(acc.MaxRelativeError({0.0, 0.0}, 1e-3)));
}

TEST(BatchMeansAccumulatorTest, RejectsChangingBatchLength) {
  BatchMeansAccumulator acc;
  acc.AddBatch({0.5, 0.5});
  EXPECT_THROW(acc.AddBatch({1.0}), std::invalid_argument);
  // An empty first batch fixes the length at zero; it cannot silently
  // widen later (which would undercount per-type batches and fake
  // convergence).
  BatchMeansAccumulator empty_first;
  empty_first.AddBatch({});
  EXPECT_EQ(empty_first.NumBatches(), 1);
  EXPECT_THROW(empty_first.AddBatch({0.5, 0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace grw
