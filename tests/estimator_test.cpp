// End-to-end correctness of the estimator (Algorithm 1): asymptotic
// unbiasedness of every method variant against exact ground truth on small
// graphs, count estimation via |R(d)|, and bookkeeping invariants.

#include "core/estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/alpha.h"
#include "core/rsize.h"
#include "exact/exact.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graphlet/catalog.h"
#include "util/rng.h"

namespace grw {

// Prints a test parameter by its method, not as a byte dump of the struct.
void PrintTo(const EstimatorConfig& config, std::ostream* os) {
  *os << "k=" << config.k << " " << config.Name();
}

namespace {

// Renormalizes `truth` over the types observable by the method (alpha > 0)
// — e.g. SRW1 cannot see 3-stars (paper footnote 3), so its concentration
// estimates converge to the conditional concentrations.
std::vector<double> ObservableTruth(const std::vector<double>& truth,
                                    int k, int d) {
  const auto alpha = AlphaTable(k, d);
  std::vector<double> adjusted(truth.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (alpha[i] > 0) total += truth[i];
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    if (alpha[i] > 0 && total > 0) adjusted[i] = truth[i] / total;
  }
  return adjusted;
}

class EstimatorConvergence
    : public ::testing::TestWithParam<EstimatorConfig> {};

TEST_P(EstimatorConvergence, ConcentrationsApproachExactValues) {
  const EstimatorConfig config = GetParam();
  // A clustered small-world-ish graph with all graphlet types present.
  Rng rng(1234);
  const Graph g = LargestConnectedComponent(HolmeKim(250, 4, 0.6, rng));
  const auto truth =
      ObservableTruth(ExactConcentrations(g, config.k), config.k, config.d);

  // Average several medium chains rather than one huge chain: bounds both
  // runtime and chain-correlation artifacts.
  const int chains = config.d >= 3 ? 4 : 8;
  const uint64_t steps = config.d >= 3 ? 30000 : 120000;
  std::vector<double> mean(truth.size(), 0.0);
  for (int c = 0; c < chains; ++c) {
    const auto result =
        GraphletEstimator::Estimate(g, config, steps, 1000 + c);
    for (size_t i = 0; i < mean.size(); ++i) {
      mean[i] += result.concentrations[i] / chains;
    }
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    // Absolute tolerance: rare types have small absolute error even when
    // the relative error is noisy.
    EXPECT_NEAR(mean[i], truth[i], 0.04)
        << config.Name() << " k=" << config.k << " type " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EstimatorConvergence,
    ::testing::Values(
        // 3-node: every d and optimization combination.
        EstimatorConfig{3, 1, false, false}, EstimatorConfig{3, 1, true, false},
        EstimatorConfig{3, 1, false, true}, EstimatorConfig{3, 1, true, true},
        EstimatorConfig{3, 2, false, false}, EstimatorConfig{3, 2, false, true},
        // 4-node: d = 1 (partial visibility), 2 (recommended), 3 (PSRW).
        EstimatorConfig{4, 1, false, false}, EstimatorConfig{4, 1, true, true},
        EstimatorConfig{4, 2, false, false}, EstimatorConfig{4, 2, true, false},
        EstimatorConfig{4, 2, false, true}, EstimatorConfig{4, 2, true, true},
        EstimatorConfig{4, 3, false, false}, EstimatorConfig{4, 3, true, false},
        // 5-node: d = 2 (recommended), SRW3CSS and the PSRW end d = 4.
        EstimatorConfig{5, 2, false, false}, EstimatorConfig{5, 2, true, false},
        EstimatorConfig{5, 3, true, false}, EstimatorConfig{5, 4, false, false}),
    [](const ::testing::TestParamInfo<EstimatorConfig>& info) {
      return "k" + std::to_string(info.param.k) + info.param.Name();
    });

TEST(EstimatorTest, CountEstimatesApproachExactCounts) {
  Rng rng(99);
  const Graph g = LargestConnectedComponent(HolmeKim(150, 4, 0.5, rng));
  const auto exact = ExactGraphletCounts(g, 3);

  for (int d = 1; d <= 2; ++d) {
    EstimatorConfig config{3, d, false, false};
    std::vector<double> mean(exact.size(), 0.0);
    const int chains = 8;
    for (int c = 0; c < chains; ++c) {
      GraphletEstimator estimator(g, config);
      estimator.Reset(500 + c);
      estimator.Run(100000);
      const auto counts = CountEstimatesFromResult(
          estimator.Result(), RelationshipEdgeCount(g, d));
      for (size_t i = 0; i < mean.size(); ++i) {
        mean[i] += counts[i] / chains;
      }
    }
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(mean[i], static_cast<double>(exact[i]),
                  0.08 * static_cast<double>(exact[i]) + 1.0)
          << "d=" << d << " type " << i;
    }
  }
}

TEST(EstimatorTest, CssCountEstimatesAlsoUnbiased) {
  Rng rng(77);
  const Graph g = LargestConnectedComponent(HolmeKim(150, 4, 0.5, rng));
  const auto exact = ExactGraphletCounts(g, 4);
  EstimatorConfig config{4, 2, true, false};
  std::vector<double> mean(exact.size(), 0.0);
  const int chains = 8;
  for (int c = 0; c < chains; ++c) {
    GraphletEstimator estimator(g, config);
    estimator.Reset(4200 + c);
    estimator.Run(150000);
    const auto counts = CountEstimatesFromResult(
        estimator.Result(), RelationshipEdgeCount(g, config.d));
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += counts[i] / chains;
  }
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(mean[i], static_cast<double>(exact[i]),
                0.12 * static_cast<double>(exact[i]) + 2.0)
        << "type " << i;
  }
}

TEST(EstimatorTest, ResultBookkeepingInvariants) {
  const Graph g = KarateClub();
  EstimatorConfig config{4, 2, false, false};
  GraphletEstimator estimator(g, config);
  estimator.Reset(7);
  estimator.Run(5000);
  const EstimateResult result = estimator.Result();
  EXPECT_EQ(result.steps, 5000u);
  EXPECT_LE(result.valid_samples, result.steps);
  EXPECT_GT(result.valid_samples, 0u);
  uint64_t sample_sum = 0;
  double conc_sum = 0.0;
  for (size_t i = 0; i < result.samples.size(); ++i) {
    sample_sum += result.samples[i];
    conc_sum += result.concentrations[i];
    EXPECT_GE(result.weights[i], 0.0);
  }
  EXPECT_EQ(sample_sum, result.valid_samples);
  EXPECT_NEAR(conc_sum, 1.0, 1e-9);
}

TEST(EstimatorTest, ResetRestartsCleanly) {
  const Graph g = KarateClub();
  GraphletEstimator estimator(g, EstimatorConfig{3, 1, false, false});
  estimator.Reset(1);
  estimator.Run(1000);
  const auto first = estimator.Result();
  estimator.Reset(1);
  estimator.Run(1000);
  const auto second = estimator.Result();
  // Same seed -> identical chain -> identical estimates.
  EXPECT_EQ(first.valid_samples, second.valid_samples);
  for (size_t i = 0; i < first.weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.weights[i], second.weights[i]);
  }
}

TEST(EstimatorTest, DistinctSeedsGiveDistinctChains) {
  const Graph g = KarateClub();
  GraphletEstimator estimator(g, EstimatorConfig{3, 1, false, false});
  estimator.Reset(1);
  estimator.Run(2000);
  const auto a = estimator.Result();
  estimator.Reset(2);
  estimator.Run(2000);
  const auto b = estimator.Result();
  EXPECT_NE(a.weights, b.weights);
}

TEST(EstimatorTest, RejectsInvalidConfigs) {
  const Graph g = KarateClub();
  EXPECT_THROW(GraphletEstimator(g, EstimatorConfig{3, 3, false, false}),
               std::invalid_argument);
  EXPECT_THROW(GraphletEstimator(g, EstimatorConfig{3, 0, false, false}),
               std::invalid_argument);
  EXPECT_THROW(GraphletEstimator(g, EstimatorConfig{7, 2, false, false}),
               std::invalid_argument);
}

TEST(EstimatorTest, ConfigNamesFollowPaperConvention) {
  EXPECT_EQ((EstimatorConfig{3, 1, false, false}).Name(), "SRW1");
  EXPECT_EQ((EstimatorConfig{4, 2, true, false}).Name(), "SRW2CSS");
  EXPECT_EQ((EstimatorConfig{3, 1, true, true}).Name(), "SRW1CSSNB");
  EXPECT_EQ((EstimatorConfig{5, 4, false, true}).Name(), "SRW4NB");
}

TEST(EstimatorTest, RelationshipEdgeCountClosedForms) {
  Rng rng(13);
  const Graph g = LargestConnectedComponent(ErdosRenyi(60, 150, rng));
  EXPECT_EQ(RelationshipEdgeCount(g, 1), g.NumEdges());
  EXPECT_EQ(RelationshipEdgeCount(g, 2), g.WedgeCount());
  // d = 3 enumeration cross-check on a tiny fixture: triangle's G(2) is a
  // triangle, K4's G(3) is K4 (each pair of 3-subsets shares 2 nodes).
  EXPECT_EQ(RelationshipEdgeCount(Complete(4), 3), 6u);
}

}  // namespace
}  // namespace grw
