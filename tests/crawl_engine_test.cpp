// Tests for the restricted-access (crawl) estimation path: the engine's
// distinct-query budget stop must land on the same step at any thread
// count, per-chain crawl accounting must sum to the run's, the G(d) walk
// must read each list where it always did, and degenerate budgets are
// refused. That crawl runs match full access is checked by
// tests/conformance_test.cpp.

#include <gtest/gtest.h>

#include <array>
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

TEST(CrawlEngineTest, GdWalkReadsOnlyTheEnteringDegree) {
  // PSRW at d = 3 and 4, plain and NB: the G(d) walk carries its state
  // vertices' degrees, so after the first step it reads one degree per
  // step (the entering vertex's), not d. The pins are the counts of a
  // walk that read all d. Every list it reads is read at the same point
  // of the run, so fetches, distinct fetches and evictions keep those
  // pins, and each transition after a chain's first makes d - 1 fewer
  // cache hits. That holds down to a cache of d + 1 lists, the state
  // plus the entering vertex, the smallest pinned here. Below it the
  // skipped reads no longer keep the state's lists recent, and fetches
  // move (distinct fetches never do): at d = 3 and 3 lists they rise
  // from 7,476 to 13,914 for chain 0, at d = 4 and 4 lists from 7,058
  // to 13,803.
  const Graph g = TestGraph();
  struct Counts {
    uint64_t fetches, distinct_fetches, cache_hits, evictions;
  };
  struct Case {
    int d;
    bool nb;
    uint64_t cache;
    std::array<Counts, 2> chains;
  };
  const Case cases[] = {
      {3, false, 4, {{{4966, 1483, 26986, 4962}, {4960, 1513, 27181, 4956}}}},
      {3, false, 64, {{{4110, 1483, 27842, 4046}, {3994, 1513, 28147, 3930}}}},
      {3, false, 256, {{{3377, 1483, 28575, 3121}, {3272, 1513, 28869, 3016}}}},
      {3, true, 4, {{{4983, 1527, 27177, 4979}, {4977, 1567, 27277, 4973}}}},
      {3, true, 64, {{{4164, 1527, 27996, 4100}, {4031, 1567, 28223, 3967}}}},
      {3, true, 256, {{{3445, 1527, 28715, 3189}, {3357, 1567, 28897, 3101}}}},
      {4, false, 5, {{{4978, 1264, 53711, 4973}, {4977, 1434, 54455, 4972}}}},
      {4, false, 64, {{{4064, 1264, 54625, 4000}, {3930, 1434, 55502, 3866}}}},
      {4, false, 256, {{{2794, 1264, 55895, 2538}, {2887, 1434, 56545, 2631}}}},
      {4, true, 5, {{{4988, 1367, 54361, 4983}, {4998, 1428, 54475, 4993}}}},
      {4, true, 64, {{{4045, 1367, 55304, 3981}, {3945, 1428, 55528, 3881}}}},
      {4, true, 256, {{{2970, 1367, 56379, 2714}, {2951, 1428, 56522, 2695}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "d=" << c.d << " nb=" << c.nb
                                    << " cache=" << c.cache);
    EngineOptions options;
    options.chains = 2;
    options.threads = 1;
    options.max_steps = 5000;
    options.base_seed = 3;
    options.round_steps = 256;
    options.crawl.emplace().cache_entries = c.cache;
    const EngineResult run =
        EstimationEngine(g, {c.d + 1, c.d, false, c.nb}, options).Run();
    ASSERT_EQ(run.per_chain_access.size(), 2u);
    for (size_t chain = 0; chain < 2; ++chain) {
      SCOPED_TRACE(chain);
      const CrawlStats& s = run.per_chain_access[chain];
      const Counts& want = c.chains[chain];
      EXPECT_EQ(s.fetches, want.fetches);
      EXPECT_EQ(s.distinct_fetches, want.distinct_fetches);
      EXPECT_EQ(s.evictions, want.evictions);
      // A window of l = 2 states: Reset takes one Step, then one per
      // counted step, and every Step but the first reads d - 1 fewer
      // degrees.
      const uint64_t steps = run.per_chain[chain].steps;
      EXPECT_EQ(steps, options.max_steps);
      EXPECT_EQ(s.cache_hits, want.cache_hits - (c.d - 1) * steps);
    }
  }
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
