#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/batch_means.h"
#include "graphlet/catalog.h"
#include "util/rng.h"
#include "util/timer.h"

namespace grw {

namespace {

// A chain's own reader of a source: the in-memory Graph is read
// directly, a ShardStore through a per-chain ShardedAccess.
const Graph& ReaderOf(const Graph& g) { return g; }
ShardedAccess ReaderOf(const ShardStore& store) {
  return ShardedAccess(store);
}

// A chain's own shard-store counters, behind its crawl cache or not;
// zeros for the in-memory Graph.
ShardStats ShardStatsOf(const Graph&) { return {}; }
ShardStats ShardStatsOf(const ShardedAccess& reader) { return reader.stats(); }
template <class Base>
ShardStats ShardStatsOf(const CrawlAccessT<Base>& crawl) {
  return ShardStatsOf(crawl.base());
}

// Base of every chain's failure-model seed ("fail" seed).
constexpr uint64_t kFailSeed = 0x6661696c5eedULL;

// Chain `chain`'s private crawler options: the run's, with the total
// budget replaced by the chain's fixed share (B >= chains was validated,
// so a positive B gives every chain a positive share; 0 stays "none"). A
// chain stops after the step that crosses its share, so the total can
// overshoot B by at most one step's fetches per chain — reported
// honestly in EngineResult::access. The share, like the failure seed,
// depends on the chain's index within the run alone, so no thread
// schedule can move either.
CrawlOptions CrawlOptionsFor(const EngineOptions& opt, int chain) {
  CrawlOptions options = *opt.crawl;
  options.query_budget =
      ChainBudgetShare(options.query_budget, opt.chains, chain);
  return options;
}

// The one chain type: the run's chain `chain` reading the graph through
// access type A, a member of GRW_ACCESS_FAMILY (graph/access.h). The
// chain owns its access (a reference for the in-memory Graph), built by
// `make(chain)`. Its RNG stream is DeriveSeed(base_seed, chain_offset +
// chain), whichever pool thread runs it.
//
// Cache-line aligned: a chain's estimator writes its counters, RNG and
// sample window every step, on whichever pool thread claimed its block,
// while the units of other blocks are read and written by other threads
// at the same time (an in-memory block interleaves its chains; every
// other block is one chain).
// Unaligned, adjacent units share lines; that cost crawl PSRW (16 chains
// on 4 threads, 4-core Xeon VM) 7–9% of its steps per CPU second.
template <class A>
struct alignas(64) ChainUnit {
  template <class MakeAccess>
  ChainUnit(const MakeAccess& make, const EstimatorConfig& config,
            const EngineOptions& opt, int chain)
      : access(make(chain)), estimator(access, config) {
    estimator.Reset(DeriveSeed(opt.base_seed, opt.chain_offset + chain));
  }
  ChainUnit(const ChainUnit&) = delete;
  ChainUnit& operator=(const ChainUnit&) = delete;

  HeldAccess<A> access;
  GraphletEstimatorT<A> estimator;
};

// The constructors' checks. The alpha probe builds one estimator over the
// source's reader, which reads only sizes (no shard payloads).
template <class Source>
void ValidateEngine(const Source& source, const EstimatorConfig& config,
                    const EngineOptions& opt) {
  if (opt.chains < 0) {
    throw std::invalid_argument("EstimationEngine: chains must be >= 0");
  }
  if (opt.crawl && opt.crawl->query_budget > 0 &&
      opt.crawl->query_budget < static_cast<uint64_t>(opt.chains)) {
    // A share of zero would mean "no budget" for that chain and the total
    // would silently overspend; refuse the degenerate split instead.
    throw std::invalid_argument(
        "EstimationEngine: crawl query_budget must be >= chains (every "
        "chain needs a positive distinct-query share)");
  }
  if (opt.chains > 0) {
    // Validate the estimator configuration eagerly (and warm the
    // k-indexed singletons) instead of failing inside the pool.
    const auto& reader = ReaderOf(source);
    const std::vector<int64_t> alpha =
        GraphletEstimatorT(reader, config).alpha();
    // The paper's rule for choosing d: the walk on G(d) never samples a
    // type with alpha = 0, which would silently read 0.
    const auto zero = std::find(alpha.begin(), alpha.end(), 0);
    if (zero != alpha.end()) {
      throw std::invalid_argument(
          "EstimationEngine: k=" + std::to_string(config.k) + " d=" +
          std::to_string(config.d) + " cannot estimate the " +
          GraphletCatalog::ForSize(config.k)
              .Get(static_cast<int>(zero - alpha.begin()))
              .name +
          " (alpha = 0: the walk never samples it); use a larger d");
    }
  }
}

// A convergence verdict needs enough batches for the across-batch
// variance to mean something; with C chains this is reached after
// ceil(8 / C) rounds.
constexpr int kMinBatchesForStop = 8;
// Types with merged concentration below this floor are not gated on
// (their relative error is dominated by shot noise).
constexpr double kMinConcentration = 1e-3;

// The round loop over chains of access type A, each built by make(chain).
template <class A, class MakeAccess>
EngineResult RunLoop(const MakeAccess& make, const EstimatorConfig& config,
                     const EngineOptions& opt) {
  EngineResult out;
  out.max_rel_error = std::numeric_limits<double>::infinity();
  if (opt.chains == 0 || opt.max_steps == 0) return out;

  const int chains = opt.chains;
  ChainPool& pool = opt.pool != nullptr ? *opt.pool : ChainPool::Shared();

  uint64_t round_steps = opt.round_steps;
  if (round_steps == 0) {
    const bool rounds_wanted = opt.target_nrmse > 0.0 || opt.on_progress;
    round_steps = rounds_wanted ? EngineOptions::DefaultRoundSteps(
                                      opt.max_steps)
                                : opt.max_steps;
  }

  WallTimer timer;
  // Held for the whole run: every fan-out below uses at most the run's
  // share of the pool (util/chain_pool.h).
  const ChainPool::Share share(pool);
  std::vector<std::unique_ptr<ChainUnit<A>>> unit(chains);
  pool.ForEach(
      static_cast<size_t>(chains),
      [&](size_t c) {
        unit[c] = std::make_unique<ChainUnit<A>>(make, config, opt,
                                                 static_cast<int>(c));
      },
      share.Threads(opt.threads));

  std::vector<GraphletEstimatorT<A>*> estimators(chains);
  for (int c = 0; c < chains; ++c) estimators[c] = &unit[c]->estimator;

  out.per_chain.assign(chains, {});
  // Previous round's cumulative weights per chain, for batch diffs.
  std::vector<std::vector<double>> prev_weights(chains);
  BatchMeansAccumulator accumulator;
  // Walk steps each chain had completed at the previous round boundary:
  // a budget-exhausted chain stops advancing, and a stalled chain must
  // not feed zero batches into the convergence accumulator.
  std::vector<uint64_t> prev_steps(chains, 0);

  uint64_t done = 0;
  while (done < opt.max_steps) {
    // Cooperative cancellation (deadlines in the serve layer): honored
    // before any work and between rounds, so the outputs below always
    // describe a whole number of completed rounds.
    if (opt.cancel && opt.cancel()) {
      out.cancelled = true;
      break;
    }
    // The last round takes the remainder of max_steps / round_steps, so
    // no batch is shorter than a round (a runt batch inflates the SE).
    const uint64_t left = opt.max_steps - done;
    const uint64_t delta = left / 2 >= round_steps ? round_steps : left;
    // Each pool task steps a contiguous block of chains as one
    // interleaved group (GraphletEstimatorT::RunGroup): ceil(chains /
    // threads) chains for the round's share of threads when reads are
    // plain loads, else one. A chain computes the same whichever block it
    // is in, so blocks change speed, never results.
    const unsigned threads = share.Threads(opt.threads);
    const size_t block = kAccessReadsArePlainLoads<A>
                             ? (estimators.size() + threads - 1) / threads
                             : 1;
    pool.ForEach(
        (estimators.size() + block - 1) / block,
        [&](size_t b) {
          const size_t first = b * block;
          const size_t last = std::min(first + block, estimators.size());
          GraphletEstimatorT<A>::RunGroup(
              std::span(estimators).subspan(first, last - first), delta);
          for (size_t c = first; c < last; ++c) {
            out.per_chain[c] = estimators[c]->Result();
          }
        },
        threads);
    done += delta;
    ++out.rounds;

    // Merge in chain order (fixed regardless of completion order).
    out.merged = {};
    for (const EstimateResult& chain : out.per_chain) {
      MergeInto(out.merged, chain);
    }

    // One batch per chain: the weight accumulated this round, normalized
    // to a concentration vector. Chains that made no progress (budget
    // spent mid-earlier-round) contribute no batch.
    uint64_t actual_steps = 0;
    for (int c = 0; c < chains; ++c) {
      const uint64_t chain_steps = out.per_chain[c].steps;
      actual_steps += chain_steps;
      if (chain_steps == prev_steps[c]) continue;
      prev_steps[c] = chain_steps;
      accumulator.AddBatch(BatchFromCumulativeWeights(
          out.per_chain[c].weights, prev_weights[c]));
    }

    // NaN while no type has weight, +inf before two batches exist.
    out.max_rel_error = accumulator.MaxRelativeError(
        out.merged.concentrations, kMinConcentration);
    out.seconds = timer.Seconds();
    out.steps_per_chain = done;
    // Actual transitions, not done * chains: budget-exhausted chains fall
    // behind the lockstep schedule. Identical for full-access runs.
    out.steps_per_second =
        out.seconds > 0.0
            ? static_cast<double>(actual_steps) / out.seconds
            : 0.0;

    if (opt.on_progress) {
      EngineProgress progress;
      progress.round = out.rounds;
      progress.chains = chains;
      progress.steps_per_chain = done;
      progress.max_steps = opt.max_steps;
      progress.total_steps = actual_steps;
      progress.seconds = out.seconds;
      progress.steps_per_second = out.steps_per_second;
      progress.max_rel_error = out.max_rel_error;
      opt.on_progress(progress);
    }

    // Stop once the target is met — but never on first-round evidence
    // alone (initial-state transients are concentrated there) and never
    // with fewer than kMinBatchesForStop batches.
    if (opt.target_nrmse > 0.0 && out.rounds >= 2 &&
        accumulator.NumBatches() >= kMinBatchesForStop &&
        std::isfinite(out.max_rel_error) &&
        out.max_rel_error <= opt.target_nrmse) {
      out.converged = true;
      break;
    }

    // Budget stop: every chain decided, inside its own run loop, that its
    // distinct-query share is spent — a per-chain verdict no thread
    // schedule can change, so the break lands on the same round at any
    // thread count.
    if constexpr (kAccessHasQueryBudget<A>) {
      if (opt.crawl->query_budget > 0) {
        const bool all_spent = std::all_of(
            unit.begin(), unit.end(),
            [](const auto& u) { return u->access.BudgetExhausted(); });
        if (all_spent) {
          out.budget_exhausted = true;
          break;
        }
      }
    }
  }

  // Crawl accounting: per-chain breakdown plus the chain-order sum.
  if constexpr (kAccessHasQueryBudget<A>) {
    out.per_chain_access.reserve(chains);
    for (const auto& u : unit) {
      out.per_chain_access.push_back(u->access.stats());
      out.access.MergeFrom(out.per_chain_access.back());
    }
  }

  // Shard accounting: the run's own readers, summed in chain order. Every
  // reader is alive until the run returns and its cache has one size
  // from the start, so the sum of their caches is the run's peak.
  for (const auto& u : unit) {
    const ShardStats chain = ShardStatsOf(u->access);
    out.shards.faults += chain.faults;
    out.shards.hits += chain.hits;
    out.shards.evictions += chain.evictions;
    out.shards.peak_resident_bytes += chain.peak_resident_bytes;
  }

  // Fewer than two batches carry no spread information: leave the errors
  // empty (unknown) rather than reporting zeros.
  if (accumulator.NumBatches() >= 2) {
    out.standard_errors = accumulator.StandardErrors();
  }
  return out;
}

// Runs over the source's reader, behind a private crawl cache per chain
// when crawl mode is on.
template <class Source>
EngineResult RunOn(const Source& source, const EstimatorConfig& config,
                   const EngineOptions& opt) {
  using Reader = std::remove_cvref_t<decltype(ReaderOf(source))>;
  if (!opt.crawl) {
    return RunLoop<Reader>(
        [&](int) -> HeldAccess<Reader> { return ReaderOf(source); }, config,
        opt);
  }
  return RunLoop<CrawlAccessT<Reader>>(
      [&](int chain) {
        return CrawlAccessT<Reader>(
            ReaderOf(source), CrawlOptionsFor(opt, chain),
            DeriveSeed(kFailSeed, static_cast<uint64_t>(chain)));
      },
      config, opt);
}

}  // namespace

uint64_t ChainBudgetShare(uint64_t budget_queries, int chains, int chain) {
  const auto n = static_cast<uint64_t>(chains);
  return budget_queries / n +
         (static_cast<uint64_t>(chain) < budget_queries % n ? 1 : 0);
}

EstimationEngine::EstimationEngine(const Graph& g,
                                   const EstimatorConfig& config,
                                   EngineOptions options)
    : g_(&g), config_(config), options_(std::move(options)) {
  ValidateEngine(g, config_, options_);
}

EstimationEngine::EstimationEngine(const ShardStore& store,
                                   const EstimatorConfig& config,
                                   EngineOptions options)
    : store_(&store), config_(config), options_(std::move(options)) {
  ValidateEngine(store, config_, options_);
}

EngineResult EstimationEngine::Run() {
  if (store_ == nullptr) return RunOn(*g_, config_, options_);
  EngineResult result = RunOn(*store_, config_, options_);
  result.shards.budget_bytes = store_->options().resident_budget_bytes;
  // The run's readers' caches, plus what the store mapped at open,
  // which every run reads through.
  result.shards.peak_resident_bytes += store_->open_bytes();
  return result;
}

}  // namespace grw
