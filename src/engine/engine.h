// Parallel estimation engine: one owner for multi-chain execution.
//
// The paper's promise is crawl-budget efficiency — estimate graphlet
// concentrations from one random walk instead of full graph access — and
// the practical question a crawler faces is "how many steps are enough?"
// (Section 5.2 / Figure 6). The engine answers it operationally: it runs R
// independent chains on a persistent ChainPool, merges their accumulators
// after every round (EstimateResult is additive across chains), monitors
// convergence online with batch means (core/batch_means.h, treating each
// (chain, round) segment as one batch), and stops as soon as the relative
// standard error of every non-negligible concentration falls below the
// target — or at the per-chain step cap, whichever comes first.
//
// Determinism contract: chain c's RNG stream is derived from
// (base_seed, chain_offset + c) alone, rounds advance every chain by the
// same step counts, and the stopping decision depends only on the merged
// round snapshots — so results (including where the engine stops) are
// bit-identical at any thread count.
//
// Execution modes compose through one chain type. A chain reads the
// graph through its source's reader — the in-memory Graph itself, or a
// private ShardedAccess per chain over a shared ShardStore (the sharded
// constructor) — and in crawl mode through a private crawl cache in
// front of that reader. Every chain is one GraphletEstimatorT, and every
// access type gives bit-identical estimates (static dispatch, so
// full-access runs compile to the unchanged hot path).
//
// Crawl mode: each chain's CrawlAccessT (graph/access.h) is an LRU
// neighbor cache plus per-query accounting. A total distinct-query
// budget B is split across chains in fixed shares; each chain stops
// itself the moment its share is spent, inside its own run loop — a
// per-chain decision that no thread schedule can perturb, so
// budget-stopped results are bit-identical at any thread count too.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "graph/access.h"
#include "graph/graph.h"
#include "util/chain_pool.h"

namespace grw {

/// Per-round progress snapshot, delivered on the calling thread.
struct EngineProgress {
  int round = 0;
  int chains = 0;
  /// The lockstep schedule position: steps every chain was *offered* so
  /// far. In crawl mode a budget-exhausted chain stops short of it.
  uint64_t steps_per_chain = 0;
  uint64_t max_steps = 0;
  /// Steps actually taken, summed across chains (equals
  /// steps_per_chain * chains except for budget-stalled chains).
  uint64_t total_steps = 0;
  double seconds = 0.0;
  /// Aggregate walk throughput, transitions per second across all chains.
  double steps_per_second = 0.0;
  /// Current convergence metric: max over monitored types of
  /// SE_i / c_i. Infinity before two batches exist; NaN while no type
  /// has accumulated weight.
  double max_rel_error = 0.0;
};

/// Engine configuration shared by all entry points.
struct EngineOptions {
  /// Number of independent chains.
  int chains = 1;
  /// A cap (0 = none); each fan-out uses at most the run's share of the
  /// pool (ChainPool::Share, util/chain_pool.h).
  unsigned threads = 0;
  /// Per-chain step cap (the paper's sample budget n).
  uint64_t max_steps = 100000;
  /// Chain c is seeded DeriveSeed(base_seed, chain_offset + c).
  uint64_t base_seed = 42;
  uint64_t chain_offset = 0;
  /// Early-stopping target for the batch-means relative standard error
  /// (an online stand-in for the NRMSE the figures report). <= 0 runs
  /// exactly max_steps per chain.
  double target_nrmse = 0.0;
  /// Steps per convergence round; 0 picks DefaultRoundSteps(max_steps)
  /// when early stopping or progress reporting is on, else one round.
  /// The last round also takes the remainder, max_steps mod round_steps,
  /// so no round is shorter than round_steps unless max_steps is.
  uint64_t round_steps = 0;

  /// The auto round size: max_steps split into ~32 rounds, at least 256
  /// steps each. Exposed so callers that pin round_steps (e.g. the CLI,
  /// to keep batch structure independent of progress reporting) stay in
  /// sync with the engine's own default.
  static uint64_t DefaultRoundSteps(uint64_t max_steps) {
    const uint64_t rounds = max_steps / 32;
    return rounds < 256 ? 256 : rounds;
  }

  /// Restricted-access (crawl) simulation of the paper's OSN setting;
  /// set = crawl mode: every chain reads through a private crawl cache
  /// configured by a copy of these options. Estimates are bit-identical
  /// either way (CI: bench_access --check-identical). Here query_budget
  /// is the whole run's (0 = none), split into fixed per-chain shares
  /// (ChainBudgetShare), and each chain's failure-model RNG is seeded from
  /// the chain's index within the run: both are thread-count invariant.
  std::optional<CrawlOptions> crawl;

  /// Invoked after every round with a progress snapshot.
  std::function<void(const EngineProgress&)> on_progress;

  /// Cooperative cancellation, polled at round boundaries (including
  /// before the first): return true to stop the run with whatever the
  /// chains accumulated so far — EngineResult::cancelled reports it, and
  /// the merged/per-chain results are a consistent snapshot of the last
  /// completed round (so a caller may inspect, report, or resume from
  /// them). The serve layer uses this for per-request deadlines;
  /// round_steps (under twice it, in the last round) bounds the poll
  /// latency.
  std::function<bool()> cancel;

  /// Pool to run on; nullptr = ChainPool::Shared().
  ChainPool* pool = nullptr;
};

/// Chain `chain`'s fixed share of a total distinct-query budget split
/// across `chains` chains: floor(B/chains) each, remainder to the first
/// B % chains chains. Depends on the chain's index within the run, in
/// [0, chains), alone (EngineOptions::chain_offset does not enter), and
/// the shares sum exactly to `budget_queries` over that range. The engine
/// validates B >= chains, so every share is positive there.
uint64_t ChainBudgetShare(uint64_t budget_queries, int chains, int chain);

/// Outcome of one engine run.
struct EngineResult {
  /// All chains combined (weights/samples/steps summed, concentrations
  /// recomputed) — the estimate to report. Default-constructed (empty
  /// vectors) when the run executed nothing (chains or max_steps zero).
  EstimateResult merged;
  /// Final per-chain results, in chain order.
  std::vector<EstimateResult> per_chain;
  /// Batch-means standard error of each merged concentration; empty
  /// when the run produced fewer than two batches (single chain, single
  /// round: no spread information).
  std::vector<double> standard_errors;
  /// Final value of the convergence metric (see EngineProgress).
  double max_rel_error = 0.0;
  /// True when the target was reached before the step cap.
  bool converged = false;
  /// True when EngineOptions::cancel stopped the run early; merged and
  /// per-chain results cover the rounds completed before cancellation.
  bool cancelled = false;
  /// Crawl mode only: true once every chain spent its distinct-query
  /// share (the run stopped on budget rather than steps/convergence).
  bool budget_exhausted = false;
  /// Crawl mode only: per-query accounting summed across chains (in
  /// chain order), and the per-chain breakdown. Empty/zero otherwise.
  CrawlStats access;
  std::vector<CrawlStats> per_chain_access;
  /// ShardStore runs only, crawl mode or not: faults, hits and evictions
  /// are this run's own readers' counters, summed in chain order, so
  /// runs sharing one store (grw_serve requests on one registration)
  /// never see each other's. peak_resident_bytes is the sum of the
  /// run's readers' fixed-size caches plus ShardStore::open_bytes, which
  /// every run shares; budget_bytes echoes the store's budget. All-zero
  /// otherwise.
  ShardStats shards;
  int rounds = 0;
  /// Lockstep schedule position at the stop (budget-stalled chains may
  /// have taken fewer transitions; merged.steps is the actual total).
  uint64_t steps_per_chain = 0;
  double seconds = 0.0;
  double steps_per_second = 0.0;
};

/// Runs EngineOptions::chains independent GraphletEstimator chains of one
/// configuration and merges them.
class EstimationEngine {
 public:
  /// Validates eagerly: throws std::invalid_argument on a bad estimator
  /// configuration, a (k, d) with an alpha = 0 type (which the walk can
  /// never sample), or chains < 0.
  EstimationEngine(const Graph& g, const EstimatorConfig& config,
                   EngineOptions options);

  /// Sharded out-of-core run: chains read through per-chain
  /// ShardedAccess over `store` (which must outlive the engine), behind
  /// a per-chain crawl cache in crawl mode.
  EstimationEngine(const ShardStore& store, const EstimatorConfig& config,
                   EngineOptions options);

  /// Executes the chains (round by round when convergence checking or
  /// progress reporting is enabled) and returns the merged outcome.
  EngineResult Run();

  const EstimatorConfig& config() const { return config_; }
  const EngineOptions& options() const { return options_; }

 private:
  const Graph* g_ = nullptr;            // in-memory storage
  const ShardStore* store_ = nullptr;   // sharded storage
  EstimatorConfig config_;
  EngineOptions options_;
};

}  // namespace grw
