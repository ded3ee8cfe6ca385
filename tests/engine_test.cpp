// Tests for the parallel estimation engine: ChainPool scheduling,
// EstimateResult merging, round slicing, and convergence-driven early
// stopping. Thread-count identity of estimates is checked by
// tests/conformance_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/alpha.h"
#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/access.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/chain_pool.h"
#include "util/rng.h"

namespace grw {
namespace {

// ---------------------------------------------------------------- pool --

// ForEach is a template over the callable (no std::function on the
// dispatch path): it must accept every callable kind, not just lambdas
// convertible to std::function.
namespace pool_callables {

std::atomic<int> free_function_hits{0};
void FreeFunction(size_t) { free_function_hits++; }

struct Functor {
  std::atomic<int>* hits;
  void operator()(size_t) const { (*hits)++; }
};

}  // namespace pool_callables

TEST(ChainPoolTest, CoversAllIndicesExactlyOnce) {
  ChainPool pool(4);
  std::vector<std::atomic<int>> hits(512);
  pool.ForEach(hits.size(), [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  pool_callables::free_function_hits = 0;
  pool.ForEach(64, pool_callables::FreeFunction);
  EXPECT_EQ(pool_callables::free_function_hits.load(), 64);

  std::atomic<int> functor_hits{0};
  pool.ForEach(64, pool_callables::Functor{&functor_hits});
  EXPECT_EQ(functor_hits.load(), 64);

  // Generic lambda: operator() is a template, impossible to wrap in a
  // std::function without choosing a signature first.
  std::atomic<int> generic_hits{0};
  pool.ForEach(64, [&](auto) { generic_hits++; });
  EXPECT_EQ(generic_hits.load(), 64);
}

TEST(ChainPoolTest, ReusableAcrossJobsAndEmptyJobs) {
  ChainPool pool(3);
  pool.ForEach(0, [](size_t) { FAIL() << "empty job must not run"; });
  for (int job = 0; job < 50; ++job) {
    std::atomic<int> count{0};
    pool.ForEach(17, [&](size_t) { count++; });
    EXPECT_EQ(count.load(), 17);
  }
  int single = 0;
  pool.ForEach(1, [&](size_t) { ++single; }, /*max_threads=*/1);
  EXPECT_EQ(single, 1);
}

TEST(ChainPoolTest, ThreadCapRespectedAndSerialFallback) {
  ChainPool pool(8);
  // max_threads = 1 runs everything on the calling thread, in order.
  std::vector<size_t> order;
  pool.ForEach(
      10, [&](size_t i) { order.push_back(i); }, /*max_threads=*/1);
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // A cap beyond both the pool and the index count.
  std::vector<std::atomic<int>> hits(7);
  pool.ForEach(7, [&](size_t i) { hits[i]++; }, /*max_threads=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ChainPoolTest, PropagatesBodyExceptions) {
  ChainPool pool(4);
  EXPECT_THROW(
      pool.ForEach(64,
                   [&](size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool is still usable after an exception.
  std::atomic<int> count{0};
  pool.ForEach(8, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ChainPoolTest, ReentrantForEachRunsInline) {
  // A body that fans out on the same pool must not deadlock: the nested
  // job is the body's own, drained by the body's thread and possibly
  // helped by idle workers.
  ChainPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.ForEach(8, [&](size_t outer) {
    pool.ForEach(16, [&](size_t inner) { hits[outer * 16 + inner]++; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ChainPoolTest, ReentrantForEachFromSerialPathsRunsInline) {
  // A job with no helper slot (max_threads = 1, n = 1, a worker-less
  // pool) runs on the calling thread; a ForEach nested in it is just
  // another job and must complete too.
  ChainPool pool(4);
  std::atomic<int> count{0};
  pool.ForEach(
      2,
      [&](size_t) { pool.ForEach(4, [&](size_t) { count++; }); },
      /*max_threads=*/1);
  EXPECT_EQ(count.load(), 8);

  ChainPool single(1);  // no workers at all
  std::atomic<int> single_count{0};
  single.ForEach(3, [&](size_t) {
    single.ForEach(5, [&](size_t) { single_count++; });
  });
  EXPECT_EQ(single_count.load(), 15);
}

TEST(ChainPoolTest, ConcurrentSubmittersRunAtOnce) {
  // Four threads each submit a one-index job whose body waits until all
  // four bodies have started. Jobs from different submitters must run
  // at once: a pool that ran one job at a time would leave each body
  // alone until its bound expired.
  constexpr int kSubmitters = 4;
  ChainPool pool(kSubmitters);
  std::atomic<int> started{0};
  std::vector<int> seen(kSubmitters, 0);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.ForEach(1, [&](size_t) {
        started.fetch_add(1);
        const auto bound =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < kSubmitters &&
               std::chrono::steady_clock::now() < bound) {
          std::this_thread::yield();
        }
        seen[s] = started.load();
      });
    });
  }
  for (std::thread& t : submitters) t.join();
  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(seen[s], kSubmitters) << "submitter " << s;
  }
}

TEST(ChainPoolTest, NestedForEachUnderConcurrentSubmitters) {
  // Concurrent jobs whose bodies each submit a nested job: every nested
  // index runs exactly once, whichever threads help.
  constexpr int kSubmitters = 4;
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  ChainPool pool(4);
  std::vector<std::atomic<int>> hits(kSubmitters * kOuter * kInner);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.ForEach(kOuter, [&, s](size_t outer) {
        pool.ForEach(kInner, [&, s, outer](size_t inner) {
          hits[(s * kOuter + outer) * kInner + inner]++;
        });
      });
    });
  }
  for (std::thread& t : submitters) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ChainPoolTest, SharedPoolIsAlive) {
  std::atomic<int> count{0};
  ChainPool::Shared().ForEach(32, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 32);
  EXPECT_GE(ChainPool::Shared().NumThreads(), 1u);
}

TEST(ChainPoolTest, SharesCountRuns) {
  // A lone share gets every thread, capped by its argument. Eight runs
  // then take shares at once: every share read stays within
  // [1, NumThreads()], it is 1 while all eight are held, and the count
  // returns to 0 once they are released.
  constexpr int kRuns = 8;
  ChainPool pool(4);
  {
    const ChainPool::Share lone(pool);
    EXPECT_EQ(pool.runs(), 1u);
    EXPECT_EQ(lone.Threads(), 4u);
    EXPECT_EQ(lone.Threads(3), 3u);
    EXPECT_EQ(lone.Threads(9), 4u);
  }
  EXPECT_EQ(pool.runs(), 0u);

  // Spins until `count` reaches kRuns (bounded, so a broken pool fails
  // instead of hanging).
  const auto await_all = [](const std::atomic<int>& count) {
    const auto bound =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (count.load() < kRuns && std::chrono::steady_clock::now() < bound) {
      std::this_thread::yield();
    }
  };
  std::atomic<int> held{0};
  std::atomic<int> done{0};
  std::atomic<int> out_of_range{0};
  std::vector<unsigned> all_held(kRuns);
  std::vector<std::thread> runs;
  for (int r = 0; r < kRuns; ++r) {
    runs.emplace_back([&, r] {
      for (int i = 0; i < 100; ++i) {
        const ChainPool::Share share(pool);
        const unsigned threads = share.Threads();
        if (threads < 1 || threads > pool.NumThreads()) ++out_of_range;
      }
      const ChainPool::Share share(pool);
      held.fetch_add(1);
      await_all(held);
      all_held[r] = share.Threads();
      done.fetch_add(1);
      await_all(done);
    });
  }
  for (std::thread& t : runs) t.join();
  EXPECT_EQ(out_of_range.load(), 0);
  for (int r = 0; r < kRuns; ++r) EXPECT_EQ(all_held[r], 1u) << "run " << r;
  EXPECT_EQ(pool.runs(), 0u);
}

// --------------------------------------------------------------- merge --

EstimateResult MakeResult(std::vector<double> weights,
                          std::vector<uint64_t> samples, uint64_t steps,
                          uint64_t valid) {
  EstimateResult r;
  r.weights = std::move(weights);
  r.samples = std::move(samples);
  r.steps = steps;
  r.valid_samples = valid;
  FinalizeConcentrations(r);
  return r;
}

TEST(MergeResultsTest, CombinesWeightsSamplesAndSteps) {
  const EstimateResult a = MakeResult({1.0, 3.0}, {10, 30}, 100, 40);
  const EstimateResult b = MakeResult({2.0, 2.0}, {20, 20}, 200, 40);
  const EstimateResult m = MergeResults({a, b});
  EXPECT_DOUBLE_EQ(m.weights[0], 3.0);
  EXPECT_DOUBLE_EQ(m.weights[1], 5.0);
  EXPECT_EQ(m.samples[0], 30u);
  EXPECT_EQ(m.samples[1], 50u);
  EXPECT_EQ(m.steps, 300u);
  EXPECT_EQ(m.valid_samples, 80u);
  EXPECT_DOUBLE_EQ(m.concentrations[0], 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(m.concentrations[1], 5.0 / 8.0);
}

TEST(MergeResultsTest, SingleChainIsIdentity) {
  const EstimateResult a = MakeResult({0.5, 1.5}, {5, 15}, 42, 20);
  const EstimateResult m = MergeResults({a});
  EXPECT_EQ(m.weights, a.weights);
  EXPECT_EQ(m.samples, a.samples);
  EXPECT_EQ(m.steps, a.steps);
  EXPECT_EQ(m.valid_samples, a.valid_samples);
  EXPECT_EQ(m.concentrations, a.concentrations);
}

TEST(MergeResultsTest, ZeroValidSamplesStayZero) {
  // Chains that never produced a valid window: all-zero weights.
  const EstimateResult a = MakeResult({0.0, 0.0}, {0, 0}, 50, 0);
  const EstimateResult b = MakeResult({0.0, 0.0}, {0, 0}, 70, 0);
  const EstimateResult m = MergeResults({a, b});
  EXPECT_EQ(m.steps, 120u);
  EXPECT_EQ(m.valid_samples, 0u);
  EXPECT_DOUBLE_EQ(m.concentrations[0], 0.0);
  EXPECT_DOUBLE_EQ(m.concentrations[1], 0.0);
  // Merging a productive chain into an unproductive one recovers its
  // concentrations.
  const EstimateResult c = MakeResult({1.0, 1.0}, {1, 1}, 30, 2);
  const EstimateResult m2 = MergeResults({a, c});
  EXPECT_DOUBLE_EQ(m2.concentrations[0], 0.5);
  EXPECT_EQ(m2.steps, 80u);
}

TEST(MergeResultsTest, HeterogeneousStepCountsAdd) {
  const EstimateResult a = MakeResult({2.0}, {2}, 10, 2);
  const EstimateResult b = MakeResult({4.0}, {4}, 1000, 4);
  const EstimateResult m = MergeResults({a, b});
  EXPECT_EQ(m.steps, 1010u);
  EXPECT_DOUBLE_EQ(m.concentrations[0], 1.0);
}

TEST(MergeResultsTest, EmptyInputAndTypeMismatch) {
  const EstimateResult empty = MergeResults({});
  EXPECT_TRUE(empty.weights.empty());
  EXPECT_EQ(empty.steps, 0u);

  EstimateResult two = MakeResult({1.0, 1.0}, {1, 1}, 10, 2);
  const EstimateResult three = MakeResult({1.0, 1.0, 1.0}, {1, 1, 1}, 10, 3);
  EXPECT_THROW(MergeInto(two, three), std::invalid_argument);
}

// -------------------------------------------------------------- engine --

EngineResult RunEngine(const Graph& g, const EstimatorConfig& config,
                       int chains, unsigned threads, uint64_t steps,
                       uint64_t round_steps = 0) {
  EngineOptions options;
  options.chains = chains;
  options.threads = threads;
  options.max_steps = steps;
  options.base_seed = 1234;
  options.round_steps = round_steps;
  EstimationEngine engine(g, config, options);
  return engine.Run();
}

TEST(EngineTest, RoundSlicingDoesNotChangeChains) {
  // Chains advanced in many small rounds must equal one big round:
  // Run(a); Run(b) on the same estimator is Run(a+b) by construction.
  const Graph g = KarateClub();
  const EstimatorConfig config{3, 1, false, false};
  const EngineResult one = RunEngine(g, config, 3, 4, 6000, 6000);
  const EngineResult many = RunEngine(g, config, 3, 4, 6000, 500);
  EXPECT_GT(many.rounds, one.rounds);
  ASSERT_EQ(one.per_chain.size(), many.per_chain.size());
  for (size_t c = 0; c < one.per_chain.size(); ++c) {
    EXPECT_EQ(one.per_chain[c].weights, many.per_chain[c].weights);
  }
  EXPECT_EQ(one.merged.weights, many.merged.weights);
}

TEST(EngineTest, RemainderJoinsTheLastRound) {
  // max_steps = 32r + 24 walks 24 more steps than 32r, in the same 32
  // rounds: the last one takes the remainder instead of a 24-step round
  // of its own, whose batch would inflate the standard errors.
  Rng rng(19);
  const Graph g = LargestConnectedComponent(HolmeKim(500, 4, 0.4, rng));
  const EstimatorConfig config{4, 2, true, false};
  constexpr uint64_t kRound = 1000;
  const EngineResult even = RunEngine(g, config, 8, 4, 32 * kRound, kRound);
  const EngineResult over =
      RunEngine(g, config, 8, 4, 32 * kRound + 24, kRound);
  EXPECT_EQ(even.rounds, 32);
  EXPECT_EQ(over.rounds, 32);
  EXPECT_EQ(even.merged.steps, 8 * 32 * kRound);
  EXPECT_EQ(over.merged.steps, 8 * (32 * kRound + 24));
  ASSERT_EQ(even.standard_errors.size(), over.standard_errors.size());
  for (size_t t = 0; t < even.standard_errors.size(); ++t) {
    if (even.merged.concentrations[t] < 1e-3) continue;
    EXPECT_NEAR(over.standard_errors[t] / even.standard_errors[t], 1.0, 0.05)
        << "type " << t;
  }
}

TEST(EngineTest, MergedEqualsMergeOfPerChain) {
  const Graph g = KarateClub();
  const EngineResult run =
      RunEngine(g, EstimatorConfig{4, 2, false, false}, 5, 0, 3000);
  const EstimateResult manual = MergeResults(run.per_chain);
  EXPECT_EQ(run.merged.weights, manual.weights);
  EXPECT_EQ(run.merged.samples, manual.samples);
  EXPECT_EQ(run.merged.steps, manual.steps);
  EXPECT_EQ(run.merged.concentrations, manual.concentrations);
  EXPECT_EQ(run.merged.steps, 5u * 3000u);
}

TEST(EngineTest, SingleRoundLeavesStandardErrorsEmpty) {
  // One chain, one round -> one batch: no spread information, so the
  // engine must report unknown (empty) errors, not zeros.
  const Graph g = KarateClub();
  const EngineResult run =
      RunEngine(g, EstimatorConfig{3, 1, false, false}, 1, 1, 2000);
  EXPECT_EQ(run.rounds, 1);
  EXPECT_TRUE(run.standard_errors.empty());
}

TEST(EngineTest, ZeroChainsYieldEmptyResult) {
  const Graph g = KarateClub();
  const EngineResult run =
      RunEngine(g, EstimatorConfig{3, 1, false, false}, 0, 0, 1000);
  EXPECT_TRUE(run.per_chain.empty());
  EXPECT_EQ(run.rounds, 0);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.merged.steps, 0u);
}

TEST(EngineTest, ConvergenceStopsBeforeStepCap) {
  Rng rng(11);
  const Graph g = LargestConnectedComponent(HolmeKim(500, 5, 0.4, rng));
  EngineOptions options;
  options.chains = 8;
  options.max_steps = 400000;
  options.base_seed = 7;
  options.target_nrmse = 0.08;
  EstimationEngine engine(g, EstimatorConfig{4, 2, true, false}, options);
  const EngineResult run = engine.Run();
  EXPECT_TRUE(run.converged);
  EXPECT_LT(run.steps_per_chain, options.max_steps);
  EXPECT_GE(run.rounds, 2);
  EXPECT_LE(run.max_rel_error, options.target_nrmse);
  EXPECT_GT(run.steps_per_second, 0.0);
  // Standard errors are reported for every type.
  EXPECT_EQ(run.standard_errors.size(), run.merged.concentrations.size());
}

TEST(EngineTest, ConvergedStoppingIsThreadCountInvariant) {
  Rng rng(13);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 4, 0.5, rng));
  EngineResult runs[2];
  for (int i = 0; i < 2; ++i) {
    EngineOptions options;
    options.chains = 4;
    options.threads = i == 0 ? 1 : 8;
    options.max_steps = 200000;
    options.base_seed = 99;
    options.target_nrmse = 0.1;
    options.round_steps = 2000;
    EstimationEngine engine(g, EstimatorConfig{3, 1, true, false}, options);
    runs[i] = engine.Run();
  }
  // The early-stopping decision is part of the determinism contract.
  EXPECT_EQ(runs[0].rounds, runs[1].rounds);
  EXPECT_EQ(runs[0].converged, runs[1].converged);
  EXPECT_EQ(runs[0].steps_per_chain, runs[1].steps_per_chain);
  EXPECT_EQ(runs[0].merged.weights, runs[1].merged.weights);
}

// Every field a chain accumulates, compared exactly.
void ExpectSameEstimate(const EstimateResult& a, const EstimateResult& b) {
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.valid_samples, b.valid_samples);
}

// ChainGroupsAreBitIdentical's crawl cell: a per-chain budget that stops
// the chains at different steps of one round. The engine steps crawl
// chains alone, so step them here as one interleaved group too: each
// must stop where its lone Run stops and equal it, and the engine must
// agree at every thread count.
void CheckCrawlGroup(const Graph& g, ChainPool& pool) {
  const EstimatorConfig config{4, 2, true, false};
  constexpr int kChains = 7;
  EngineOptions options;
  options.chains = kChains;
  options.max_steps = 100000;
  options.base_seed = 13;
  options.pool = &pool;
  CrawlOptions& crawl = options.crawl.emplace();
  crawl.cache_entries = 64;
  crawl.query_budget = kChains * 100;

  std::vector<std::unique_ptr<CrawlAccess>> access;
  std::vector<std::unique_ptr<GraphletEstimatorT<CrawlAccess>>> chains;
  std::vector<GraphletEstimatorT<CrawlAccess>*> group;
  std::vector<EstimateResult> lone;
  for (int c = 0; c < kChains; ++c) {
    CrawlOptions share = crawl;
    share.query_budget = ChainBudgetShare(crawl.query_budget, kChains, c);
    const CrawlAccess alone(g, share);
    GraphletEstimatorT<CrawlAccess> estimator(alone, config);
    estimator.Reset(DeriveSeed(options.base_seed, c));
    estimator.Run(options.max_steps);
    lone.push_back(estimator.Result());
    access.push_back(std::make_unique<CrawlAccess>(g, share));
    chains.push_back(std::make_unique<GraphletEstimatorT<CrawlAccess>>(
        *access.back(), config));
    chains.back()->Reset(DeriveSeed(options.base_seed, c));
    group.push_back(chains.back().get());
  }
  GraphletEstimatorT<CrawlAccess>::RunGroup(group, options.max_steps);
  std::vector<uint64_t> stops;
  for (int c = 0; c < kChains; ++c) {
    SCOPED_TRACE(c);
    ExpectSameEstimate(chains[c]->Result(), lone[c]);
    EXPECT_LT(lone[c].steps, options.max_steps);
    stops.push_back(lone[c].steps);
  }
  std::sort(stops.begin(), stops.end());
  EXPECT_LT(stops.front(), stops.back());

  for (const unsigned threads : {1u, 3u, 7u}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    const EngineResult run = EstimationEngine(g, config, options).Run();
    EXPECT_EQ(run.rounds, 1);
    EXPECT_TRUE(run.budget_exhausted);
    ASSERT_EQ(run.per_chain.size(), lone.size());
    for (int c = 0; c < kChains; ++c) {
      ExpectSameEstimate(run.per_chain[c], lone[c]);
    }
  }
}

TEST(EngineTest, ChainGroupsAreBitIdentical) {
  // 7 chains at threads 1, 2, 3, 4 and 7 step in interleaved blocks of
  // 7, 4, 3, 2 and 1 chains (GraphletEstimatorT::RunGroup). Whatever
  // block a chain runs in, it must equal a lone Reset + Run of the same
  // steps, and the merged result must not move with the thread count.
  // The last cell is a crawl run (CheckCrawlGroup).
  Rng rng(29);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
  constexpr int kChains = 7;
  constexpr uint64_t kSteps = 3000;
  ChainPool pool(kChains);
  for (const bool nb : {false, true}) {
    for (EstimatorConfig config : {EstimatorConfig{3, 1, false, false},
                                   EstimatorConfig{4, 2, true, false},
                                   EstimatorConfig{5, 2, true, false},
                                   EstimatorConfig{4, 3, false, false}}) {
      config.nb = nb;
      SCOPED_TRACE(config.Name() + " k=" + std::to_string(config.k));
      EngineOptions options;
      options.chains = kChains;
      options.max_steps = kSteps;
      options.round_steps = 1000;
      options.base_seed = 77;
      options.pool = &pool;
      std::vector<EstimateResult> lone;
      for (int c = 0; c < kChains; ++c) {
        GraphletEstimator estimator(g, config);
        estimator.Reset(DeriveSeed(options.base_seed, c));
        estimator.Run(kSteps);
        lone.push_back(estimator.Result());
      }
      EngineResult first;
      for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
        SCOPED_TRACE(threads);
        options.threads = threads;
        const EngineResult run = EstimationEngine(g, config, options).Run();
        ASSERT_EQ(run.per_chain.size(), lone.size());
        for (int c = 0; c < kChains; ++c) {
          ExpectSameEstimate(run.per_chain[c], lone[c]);
        }
        if (threads == 1) first = run;
        ExpectSameEstimate(run.merged, first.merged);
        EXPECT_EQ(run.merged.concentrations, first.merged.concentrations);
      }
    }
  }
  SCOPED_TRACE("crawl");
  CheckCrawlGroup(g, pool);
}

TEST(EngineTest, FairShareKeepsChainsBitIdentical) {
  // Other runs' shares on a 4-thread pool shrink this run's share: with
  // 0, 1, 3 and 7 of them held it steps in-memory chains on 4, 2, 1 and
  // 1 threads, in blocks to match, and caps a crawl run's helpers
  // alike. Whatever the share, every chain must equal a lone Reset + Run
  // and the merged result must equal the run with no other shares.
  Rng rng(31);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
  constexpr uint64_t kSteps = 3000;
  ChainPool pool(4);
  struct Cell {
    EstimatorConfig config;
    int chains;
    bool crawl;
  };
  for (const Cell& cell : {Cell{{3, 1, true, true}, 1, false},
                           Cell{{4, 2, true, false}, 2, false},
                           Cell{{4, 2, true, false}, 7, false},
                           Cell{{4, 2, true, false}, 3, true}}) {
    SCOPED_TRACE(cell.config.Name() + " k=" + std::to_string(cell.config.k) +
                 " chains=" + std::to_string(cell.chains) +
                 (cell.crawl ? " crawl" : ""));
    EngineOptions options;
    options.chains = cell.chains;
    options.max_steps = kSteps;
    options.round_steps = 1000;
    options.base_seed = 91;
    options.pool = &pool;
    if (cell.crawl) {
      CrawlOptions& crawl = options.crawl.emplace();
      crawl.cache_entries = 64;
      crawl.query_budget = static_cast<uint64_t>(cell.chains) * 150;
    }
    std::vector<EstimateResult> lone;
    for (int c = 0; c < cell.chains; ++c) {
      if (cell.crawl) {
        CrawlOptions share = *options.crawl;
        share.query_budget =
            ChainBudgetShare(share.query_budget, cell.chains, c);
        const CrawlAccess alone(g, share);
        GraphletEstimatorT<CrawlAccess> estimator(alone, cell.config);
        estimator.Reset(DeriveSeed(options.base_seed, c));
        estimator.Run(kSteps);
        lone.push_back(estimator.Result());
      } else {
        GraphletEstimator estimator(g, cell.config);
        estimator.Reset(DeriveSeed(options.base_seed, c));
        estimator.Run(kSteps);
        lone.push_back(estimator.Result());
      }
    }
    EngineResult first;
    for (const unsigned extra : {0u, 1u, 3u, 7u}) {
      SCOPED_TRACE(extra);
      std::vector<std::unique_ptr<ChainPool::Share>> others;
      for (unsigned i = 0; i < extra; ++i) {
        others.push_back(std::make_unique<ChainPool::Share>(pool));
      }
      // The run holds its own share for its whole length.
      unsigned runs_seen = 0;
      options.on_progress = [&](const EngineProgress&) {
        runs_seen = pool.runs();
      };
      const EngineResult run =
          EstimationEngine(g, cell.config, options).Run();
      EXPECT_EQ(runs_seen, extra + 1);
      ASSERT_EQ(run.per_chain.size(), lone.size());
      for (int c = 0; c < cell.chains; ++c) {
        ExpectSameEstimate(run.per_chain[c], lone[c]);
      }
      if (extra == 0) first = run;
      ExpectSameEstimate(run.merged, first.merged);
      EXPECT_EQ(run.merged.concentrations, first.merged.concentrations);
    }
    EXPECT_EQ(pool.runs(), 0u);
  }
}

TEST(EngineTest, TightTargetHitsStepCapUnconverged) {
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 2;
  options.max_steps = 2000;
  options.target_nrmse = 1e-9;  // unreachable at this budget
  EstimationEngine engine(g, EstimatorConfig{3, 1, false, false}, options);
  const EngineResult run = engine.Run();
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.steps_per_chain, options.max_steps);
}

TEST(EngineTest, ProgressReportsEveryRound) {
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 3;
  options.max_steps = 4000;
  options.round_steps = 1000;
  int calls = 0;
  uint64_t last_steps = 0;
  options.on_progress = [&](const EngineProgress& p) {
    ++calls;
    EXPECT_EQ(p.round, calls);
    EXPECT_EQ(p.chains, 3);
    EXPECT_GT(p.steps_per_chain, last_steps);
    EXPECT_EQ(p.total_steps, p.steps_per_chain * 3);
    last_steps = p.steps_per_chain;
  };
  EstimationEngine engine(g, EstimatorConfig{3, 1, false, false},
                          options);
  const EngineResult run = engine.Run();
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(run.rounds, 4);
  EXPECT_EQ(last_steps, 4000u);
}

TEST(EngineTest, RejectsBadConfiguration) {
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = -1;
  EXPECT_THROW(
      EstimationEngine(g, EstimatorConfig{3, 1, false, false}, options),
      std::invalid_argument);
  options.chains = 1;
  EXPECT_THROW(
      EstimationEngine(g, EstimatorConfig{3, 3, false, false}, options),
      std::invalid_argument);
}

TEST(EngineTest, AcceptsExactlyTheEstimableKdPairs) {
  // A (k, d) with an alpha = 0 type cannot estimate that type at all;
  // the engine refuses it, naming the type. The paper's Tables 2 and 3:
  // only d = 1 has zeros for k = 4 (the 3-star) and k = 5.
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 1;
  for (int k = 3; k <= 5; ++k) {
    for (int d = 1; d < k; ++d) {
      SCOPED_TRACE("k=" + std::to_string(k) + " d=" + std::to_string(d));
      const bool estimable = !(d == 1 && k >= 4);
      bool has_zero = false;
      for (int64_t a : AlphaTable(k, d)) has_zero = has_zero || a == 0;
      EXPECT_EQ(has_zero, !estimable);
      for (const bool css : {false, true}) {
        const EstimatorConfig config{k, d, css, false};
        if (estimable) {
          EXPECT_NO_THROW(EstimationEngine(g, config, options));
          continue;
        }
        try {
          EstimationEngine engine(g, config, options);
          ADD_FAILURE() << "accepted an unestimable configuration";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("alpha = 0"),
                    std::string::npos)
              << e.what();
          if (k == 4) {
            EXPECT_NE(std::string(e.what()).find("3-star"),
                      std::string::npos)
                << e.what();
          }
        }
      }
    }
  }
}

// -------------------------------------------------- budget + cancel --

TEST(ChainBudgetShareTest, SplitSumsExactlyToBudget) {
  // The per-chain crawl budget split must conserve the total exactly —
  // floor division alone loses up to chains-1 queries, which on a tight
  // budget is the difference between "ran" and "refused". Adversarial
  // (chains, B) pairs, including B barely >= chains.
  for (const int chains : {1, 2, 3, 7, 8, 13, 64, 255}) {
    const auto c = static_cast<uint64_t>(chains);
    for (const uint64_t budget :
         {c, c + 1, c + 2, 2 * c - 1, 2 * c + 3, uint64_t{1000},
          uint64_t{999983}, c * c + c / 2}) {
      uint64_t sum = 0;
      uint64_t prev = ~uint64_t{0};
      for (int chain = 0; chain < chains; ++chain) {
        const uint64_t share = ChainBudgetShare(budget, chains, chain);
        // Shares are near-equal (differ by at most 1) and non-increasing
        // (remainder queries go to the first chains).
        EXPECT_GE(share, budget / c);
        EXPECT_LE(share, budget / c + 1);
        if (chain > 0) {
          EXPECT_LE(share, prev);
        }
        prev = share;
        sum += share;
      }
      EXPECT_EQ(sum, budget) << "chains=" << chains << " B=" << budget;
    }
  }
}

TEST(EngineTest, CancelStopsAtRoundBoundary) {
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 2;
  options.max_steps = 100000;
  options.round_steps = 1000;
  int rounds_seen = 0;
  options.cancel = [&rounds_seen] { return rounds_seen >= 3; };
  options.on_progress = [&rounds_seen](const EngineProgress&) {
    ++rounds_seen;
  };
  EstimationEngine engine(g, EstimatorConfig{3, 1, false, false}, options);
  const EngineResult run = engine.Run();
  EXPECT_TRUE(run.cancelled);
  EXPECT_EQ(run.rounds, 3);
  EXPECT_EQ(run.steps_per_chain, 3000u);
  // A cancelled run still merges what it has.
  EXPECT_EQ(run.merged.steps, 2u * 3000u);
  EXPECT_FALSE(run.merged.concentrations.empty());
}

TEST(EngineTest, CancelBeforeFirstRoundYieldsEmptyRun) {
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 2;
  options.max_steps = 5000;
  options.cancel = [] { return true; };
  EstimationEngine engine(g, EstimatorConfig{3, 1, false, false}, options);
  const EngineResult run = engine.Run();
  EXPECT_TRUE(run.cancelled);
  EXPECT_EQ(run.rounds, 0);
  EXPECT_EQ(run.merged.steps, 0u);
}

TEST(EngineTest, NullCancelAndFalseCancelRunToCompletion) {
  const Graph g = KarateClub();
  EngineOptions options;
  options.chains = 2;
  options.max_steps = 3000;
  options.base_seed = 77;
  EstimationEngine plain(g, EstimatorConfig{3, 1, false, false}, options);
  const EngineResult a = plain.Run();
  options.cancel = [] { return false; };
  EstimationEngine with_cancel(g, EstimatorConfig{3, 1, false, false},
                               options);
  const EngineResult b = with_cancel.Run();
  // A never-firing cancel hook must not perturb the run.
  EXPECT_FALSE(a.cancelled);
  EXPECT_FALSE(b.cancelled);
  EXPECT_EQ(a.merged.weights, b.merged.weights);
  EXPECT_EQ(a.rounds, b.rounds);
}

}  // namespace
}  // namespace grw
