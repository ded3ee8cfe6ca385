// Build-seam smoke tests: the cross-layer contracts the CMake wiring
// depends on — paper-style method naming from EstimatorConfig, the
// d = k-1 (PSRW) end of the walk family constructing and running end to
// end, config validation, and the Threads::Threads link through the
// shared ChainPool driving multi-chain estimation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/estimator.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/chain_pool.h"
#include "util/rng.h"

namespace grw {
namespace {

Graph SmallGraph() {
  Rng rng(7);
  return LargestConnectedComponent(HolmeKim(120, 3, 0.5, rng));
}

TEST(BuildSmokeTest, MethodNamingMatchesPaperConventions) {
  // The naming contract documented in core/estimator.h.
  EXPECT_EQ((EstimatorConfig{.k = 3, .d = 1}.Name()), "SRW1");
  EXPECT_EQ((EstimatorConfig{.k = 4, .d = 2, .css = true}.Name()),
            "SRW2CSS");
  EXPECT_EQ(
      (EstimatorConfig{.k = 3, .d = 1, .css = true, .nb = true}.Name()),
      "SRW1CSSNB");
  // PSRW is not a separate code path: it is the d = k-1 member of the
  // family, named SRW(k-1).
  EXPECT_EQ((EstimatorConfig{.k = 4, .d = 3}.Name()), "SRW3");
  EXPECT_EQ((EstimatorConfig{.k = 5, .d = 4}.Name()), "SRW4");
}

TEST(BuildSmokeTest, PsrwConfigRunsEndToEnd) {
  const Graph g = SmallGraph();
  const EstimatorConfig psrw{.k = 4, .d = 3};  // PSRW for 4-node graphlets
  const auto result = GraphletEstimator::Estimate(g, psrw, 2000, 42);
  EXPECT_EQ(result.steps, 2000u);
  EXPECT_GT(result.valid_samples, 0u);
  double sum = 0.0;
  for (double c : result.concentrations) sum += c;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(BuildSmokeTest, InvalidConfigsAreRejected) {
  const Graph g = SmallGraph();
  EXPECT_THROW(GraphletEstimator(g, EstimatorConfig{.k = 4, .d = 4}),
               std::invalid_argument);  // d must be < k
  EXPECT_THROW(GraphletEstimator(g, EstimatorConfig{.k = 2, .d = 1}),
               std::invalid_argument);  // k out of range
}

TEST(BuildSmokeTest, ParallelForDrivesIndependentChains) {
  // The experiment runner's fan-out pattern in miniature: R chains on the
  // shared pool, deterministic per-chain seeds, identical to serial.
  const Graph g = SmallGraph();
  const EstimatorConfig config{.k = 4, .d = 2, .css = true};
  constexpr size_t kChains = 8;
  constexpr uint64_t kSteps = 3000;

  std::vector<double> parallel_first(kChains, 0.0);
  std::atomic<size_t> ran{0};
  ChainPool::Shared().ForEach(kChains, [&](size_t c) {
    const auto r = GraphletEstimator::Estimate(g, config, kSteps, 100 + c);
    parallel_first[c] = r.concentrations[0];
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), kChains);

  for (size_t c = 0; c < kChains; ++c) {
    const auto r = GraphletEstimator::Estimate(g, config, kSteps, 100 + c);
    EXPECT_DOUBLE_EQ(parallel_first[c], r.concentrations[0]) << "chain " << c;
  }
}

}  // namespace
}  // namespace grw
