// Tests for the restricted-access (crawl) estimation path: the CrawlAccess
// policy threaded through the estimator stack must leave every estimate
// bit-identical to full access (the policy changes cost accounting, never
// sampling), and the engine's distinct-query budget stop must land on the
// same step at any thread count.

#include <gtest/gtest.h>

#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/access.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace grw {
namespace {

Graph TestGraph() {
  Rng rng(7);
  return LargestConnectedComponent(HolmeKim(3000, 4, 0.4, rng));
}

void ExpectSameEstimate(const EstimateResult& a, const EstimateResult& b) {
  ASSERT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.valid_samples, b.valid_samples);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    // Bit-identical, not approximately equal: the access policy must not
    // change a single RNG draw or floating-point operation.
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
    EXPECT_EQ(a.concentrations[i], b.concentrations[i]) << "conc " << i;
    EXPECT_EQ(a.samples[i], b.samples[i]) << "samples " << i;
  }
}

TEST(CrawlEstimatorTest, BitIdenticalToFullAccessAcrossConfigs) {
  const Graph g = TestGraph();
  // One config per walk dimension, CSS on and off, NB on: every policy
  // read path (walker transition, window probe, CSS degree, G(d)
  // enumeration) is exercised.
  const std::vector<EstimatorConfig> configs = {
      {3, 1, true, true},    // SRW1CSSNB: NodeWalk + CSS table
      {4, 2, true, false},   // SRW2CSS:   EdgeWalk + CSS table
      {4, 2, false, false},  // SRW2:      interior-degree weights
      {5, 3, false, false},  // SRW3:      SubgraphWalk, closed-form G(3)
      {4, 3, false, false},  // PSRW:      the crawl-psrw3 configuration
      {4, 3, false, true},   // PSRW NB:   located moves redrawn off prev
      {5, 3, true, false},   // SRW3CSS:   DegreeOfState per window state
  };
  for (const EstimatorConfig& config : configs) {
    const uint64_t steps = config.d >= 3 ? 500 : 5000;
    const EstimateResult full =
        GraphletEstimator::Estimate(g, config, steps, 99);
    CrawlAccess crawl(g, {});
    const EstimateResult crawled =
        GraphletEstimatorT<CrawlAccess>::Estimate(crawl, config, steps, 99);
    SCOPED_TRACE(config.Name());
    ExpectSameEstimate(full, crawled);
    EXPECT_GT(crawl.stats().distinct_fetches, 0u);
  }
}

TEST(CrawlEstimatorTest, CacheSizeOneMatchesUnboundedEstimates) {
  // The LRU capacity moves cost (fetches/evictions), never results: the
  // degenerate one-entry cache must produce the same estimate as the
  // unbounded one, while paying visibly more fetches.
  const Graph g = TestGraph();
  const EstimatorConfig config{4, 2, true, false};

  CrawlAccess unbounded(g, {});
  const EstimateResult a =
      GraphletEstimatorT<CrawlAccess>::Estimate(unbounded, config, 5000, 3);

  CrawlAccess::Options tiny_opt;
  tiny_opt.cache_entries = 1;
  CrawlAccess tiny(g, tiny_opt);
  const EstimateResult b =
      GraphletEstimatorT<CrawlAccess>::Estimate(tiny, config, 5000, 3);

  ExpectSameEstimate(a, b);
  EXPECT_EQ(unbounded.stats().evictions, 0u);
  EXPECT_GT(tiny.stats().evictions, 0u);
  EXPECT_GT(tiny.stats().fetches, unbounded.stats().fetches);
  EXPECT_EQ(tiny.stats().distinct_fetches,
            unbounded.stats().distinct_fetches);
}

TEST(CrawlEngineTest, CrawlRunMatchesFullAccessRunAtAnyThreadCount) {
  const Graph g = TestGraph();
  const EstimatorConfig config{4, 2, true, false};
  EngineOptions base;
  base.chains = 4;
  base.max_steps = 4000;
  base.base_seed = 11;
  base.round_steps = 512;

  EngineOptions full_options = base;
  const EngineResult full =
      EstimationEngine(g, config, full_options).Run();

  for (unsigned threads : {1u, 2u, 8u}) {
    EngineOptions crawl_options = base;
    crawl_options.threads = threads;
    crawl_options.crawl.enabled = true;
    const EngineResult crawled =
        EstimationEngine(g, config, crawl_options).Run();
    SCOPED_TRACE(threads);
    ExpectSameEstimate(full.merged, crawled.merged);
    ASSERT_EQ(crawled.per_chain_access.size(), 4u);
    EXPECT_FALSE(crawled.budget_exhausted);  // no budget set
  }
}

TEST(CrawlEngineTest, BudgetStopIsDeterministicAcrossThreadCounts) {
  const Graph g = TestGraph();
  const EstimatorConfig config{4, 2, true, false};
  constexpr uint64_t kBudget = 1500;

  EngineResult reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    EngineOptions options;
    options.chains = 3;
    options.threads = threads;
    options.max_steps = 100000;  // budget must stop the run well before
    options.base_seed = 5;
    options.round_steps = 256;
    options.crawl.enabled = true;
    options.crawl.budget_queries = kBudget;
    const EngineResult run = EstimationEngine(g, config, options).Run();

    EXPECT_TRUE(run.budget_exhausted);
    EXPECT_LT(run.merged.steps, 3u * options.max_steps);
    // Every chain spent at least its share; the total can overshoot only
    // by the final step's fetches per chain.
    EXPECT_GE(run.access.distinct_fetches, kBudget);
    EXPECT_LE(run.access.distinct_fetches, kBudget + 3 * 32);

    if (threads == 1u) {
      reference = run;
      continue;
    }
    SCOPED_TRACE(threads);
    // Same stop point, same estimate, same accounting — the budget
    // verdict is per-chain, so the thread schedule cannot move it.
    ExpectSameEstimate(reference.merged, run.merged);
    EXPECT_EQ(reference.rounds, run.rounds);
    ASSERT_EQ(reference.per_chain_access.size(),
              run.per_chain_access.size());
    for (size_t c = 0; c < run.per_chain_access.size(); ++c) {
      EXPECT_EQ(reference.per_chain_access[c].fetches,
                run.per_chain_access[c].fetches);
      EXPECT_EQ(reference.per_chain_access[c].distinct_fetches,
                run.per_chain_access[c].distinct_fetches);
      EXPECT_EQ(reference.per_chain_access[c].cache_hits,
                run.per_chain_access[c].cache_hits);
      EXPECT_EQ(reference.per_chain[c].steps, run.per_chain[c].steps);
    }
  }
}

TEST(CrawlEngineTest, AccessStatsSumOverChains) {
  const Graph g = TestGraph();
  const EstimatorConfig config{3, 1, true, true};
  EngineOptions options;
  options.chains = 4;
  options.max_steps = 2000;
  options.crawl.enabled = true;
  options.crawl.cache_entries = 64;
  options.crawl.latency_us = 50.0;
  const EngineResult run = EstimationEngine(g, config, options).Run();

  ASSERT_EQ(run.per_chain_access.size(), 4u);
  CrawlStats sum;
  for (const CrawlStats& chain : run.per_chain_access) {
    sum.MergeFrom(chain);
    EXPECT_GT(chain.fetches, 0u);
    EXPECT_GT(chain.simulated_latency_us, 0.0);
  }
  EXPECT_EQ(sum.fetches, run.access.fetches);
  EXPECT_EQ(sum.distinct_fetches, run.access.distinct_fetches);
  EXPECT_EQ(sum.cache_hits, run.access.cache_hits);
  EXPECT_EQ(sum.evictions, run.access.evictions);
  EXPECT_DOUBLE_EQ(sum.simulated_latency_us,
                   run.access.simulated_latency_us);
  // latency_us accumulates exactly once per fetch.
  EXPECT_DOUBLE_EQ(run.access.simulated_latency_us,
                   50.0 * static_cast<double>(run.access.fetches));
}

TEST(CrawlEngineTest, BudgetSmallerThanChainCountIsRejected) {
  // A zero per-chain share would mean "no budget" and silently overspend
  // the documented total; the engine refuses the degenerate split.
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 8;
  options.crawl.enabled = true;
  options.crawl.budget_queries = 2;
  EXPECT_THROW(EstimationEngine(g, {3, 1, false, false}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace grw
