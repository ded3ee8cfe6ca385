// Tests for the restricted-access (crawl) estimation path: the engine's
// distinct-query budget stop must land on the same step at any thread
// count, per-chain crawl accounting must sum to the run's, and degenerate
// budgets are refused. That crawl runs match full access is checked by
// tests/conformance_test.cpp.

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
    options.crawl.emplace().query_budget = kBudget;
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
    EXPECT_EQ(reference.merged.weights, run.merged.weights);
    EXPECT_EQ(reference.merged.concentrations, run.merged.concentrations);
    EXPECT_EQ(reference.merged.samples, run.merged.samples);
    EXPECT_EQ(reference.merged.steps, run.merged.steps);
    EXPECT_EQ(reference.merged.valid_samples, run.merged.valid_samples);
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
  options.crawl.emplace();
  options.crawl->cache_entries = 64;
  options.crawl->latency_us = 50.0;
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

TEST(CrawlEngineTest, PerChainCrawlStatsArePinned) {
  // Every crawl setting at once, budget-stopped: the per-chain budget
  // shares (1203 over 4 chains: 301, 301, 301, 300) and the per-chain
  // failure seeds fix these counts, so a change that moves either (or
  // the LRU, or the failure model's draws) shows up here. cache_hits
  // also counts the sample window's edge probes, so it moves with the
  // adjacency the walk hands the window (walk/walker.h KnownAdjacency),
  // and the walk's own degree reads, so it moves with whether the chain
  // asks for state degrees (SRW2CSS does not).
  const Graph g = TestGraph();
  EngineOptions options;
  options.chains = 4;
  options.threads = 2;
  options.max_steps = 100000;
  options.base_seed = 11;
  options.round_steps = 256;
  CrawlOptions& crawl = options.crawl.emplace();
  crawl.cache_entries = 64;
  crawl.latency_us = 50.0;
  crawl.query_budget = 1203;
  crawl.failure.fail_prob = 0.2;
  crawl.failure.max_retries = 3;
  crawl.failure.backoff_base_us = 100.0;
  const EngineResult run =
      EstimationEngine(g, {4, 2, true, false}, options).Run();

  struct Pinned {
    uint64_t fetches, distinct_fetches, cache_hits, evictions;
    uint64_t transient_failures, retries, giveups;
    double backoff_latency_us, simulated_latency_us;
  };
  const Pinned expected[] = {
      {314, 301, 4317, 250, 100, 99, 1, 1016221.6320791552, 15700},
      {311, 301, 4304, 247, 73, 73, 0, 12138.617116873324, 15550},
      {322, 301, 4795, 258, 88, 88, 0, 13615.470115994136, 16100},
      {345, 300, 5078, 281, 73, 72, 1, 1011534.897022314, 17250},
  };
  ASSERT_EQ(run.per_chain_access.size(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    SCOPED_TRACE(c);
    const CrawlStats& s = run.per_chain_access[c];
    EXPECT_EQ(s.fetches, expected[c].fetches);
    EXPECT_EQ(s.distinct_fetches, expected[c].distinct_fetches);
    EXPECT_EQ(s.cache_hits, expected[c].cache_hits);
    EXPECT_EQ(s.evictions, expected[c].evictions);
    EXPECT_EQ(s.transient_failures, expected[c].transient_failures);
    EXPECT_EQ(s.retries, expected[c].retries);
    EXPECT_EQ(s.giveups, expected[c].giveups);
    EXPECT_DOUBLE_EQ(s.backoff_latency_us, expected[c].backoff_latency_us);
    EXPECT_DOUBLE_EQ(s.simulated_latency_us,
                     expected[c].simulated_latency_us);
  }
  EXPECT_TRUE(run.budget_exhausted);
  EXPECT_EQ(run.merged.steps, 1494u);
}

TEST(CrawlEngineTest, BudgetSmallerThanChainCountIsRejected) {
  // A zero per-chain share would mean "no budget" and silently overspend
  // the documented total; the engine refuses the degenerate split.
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 8;
  options.crawl.emplace().query_budget = 2;
  EXPECT_THROW(EstimationEngine(g, {3, 1, false, false}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace grw
