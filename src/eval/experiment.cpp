#include "eval/experiment.h"

#include <cmath>
#include <stdexcept>

#include "core/rsize.h"
#include "engine/engine.h"
#include "util/chain_pool.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace grw {

namespace {

ChainEstimates RunChainsImpl(
    const Graph& g, const EstimatorConfig& config, uint64_t steps, int sims,
    uint64_t base_seed, unsigned threads, bool counts) {
  ChainEstimates result;
  result.estimates.assign(sims, {});
  if (counts && config.d > 2) {
    throw std::logic_error(
        "RunCountChains: no closed-form |R(d)| for d >= 3");
  }
  const uint64_t relationship_edges =
      counts ? RelationshipEdgeCount(g, config.d) : 0;
  // Serial-cost probe: one timed chain (thread fan-out would distort the
  // per-chain wall clock the runtime comparisons need).
  {
    WallTimer timer;
    GraphletEstimator probe(g, config);
    probe.Reset(DeriveSeed(base_seed, 0));
    probe.Run(steps);
    result.seconds_per_chain = timer.Seconds();
    result.estimates[0] = counts
                              ? CountEstimatesFromResult(probe.Result(),
                                                         relationship_edges)
                              : probe.Result().concentrations;
  }
  // Remaining chains run on the engine's persistent pool; chain_offset
  // keeps per-chain seeds identical to the all-serial assignment.
  EngineOptions options;
  options.chains = sims - 1;
  options.chain_offset = 1;
  options.threads = threads;
  options.max_steps = steps;
  options.base_seed = base_seed;
  EstimationEngine engine(g, config, options);
  const EngineResult run = engine.Run();
  for (size_t c = 0; c < run.per_chain.size(); ++c) {
    result.estimates[c + 1] =
        counts ? CountEstimatesFromResult(run.per_chain[c],
                                          relationship_edges)
               : run.per_chain[c].concentrations;
  }
  return result;
}

}  // namespace

ChainEstimates RunConcentrationChains(const Graph& g,
                                      const EstimatorConfig& config,
                                      uint64_t steps, int sims,
                                      uint64_t base_seed, unsigned threads) {
  return RunChainsImpl(g, config, steps, sims, base_seed, threads,
                       /*counts=*/false);
}

ChainEstimates RunCountChains(const Graph& g, const EstimatorConfig& config,
                              uint64_t steps, int sims, uint64_t base_seed,
                              unsigned threads) {
  return RunChainsImpl(g, config, steps, sims, base_seed, threads,
                       /*counts=*/true);
}

ChainEstimates RunCustomChains(
    int sims, const std::function<std::vector<double>(int)>& fn,
    unsigned threads) {
  ChainEstimates result;
  result.estimates.assign(sims, {});
  {
    WallTimer timer;
    result.estimates[0] = fn(0);
    result.seconds_per_chain = timer.Seconds();
  }
  ChainPool::Shared().ForEach(
      static_cast<size_t>(sims) - 1,
      [&](size_t i) { result.estimates[i + 1] = fn(static_cast<int>(i + 1)); },
      threads);
  return result;
}

double NrmseOfType(const ChainEstimates& chains,
                   const std::vector<double>& truth, int type) {
  std::vector<double> values;
  values.reserve(chains.estimates.size());
  for (const auto& est : chains.estimates) values.push_back(est[type]);
  return Nrmse(values, truth[type]);
}

std::vector<double> ConvergenceNrmse(const Graph& g,
                                     const EstimatorConfig& config,
                                     const std::vector<uint64_t>& step_grid,
                                     int sims, uint64_t base_seed,
                                     const std::vector<double>& truth,
                                     int type, unsigned threads) {
  // estimates[grid_point][chain]
  std::vector<std::vector<double>> estimates(
      step_grid.size(), std::vector<double>(sims, 0.0));
  ChainPool::Shared().ForEach(
      static_cast<size_t>(sims),
      [&](size_t chain) {
        GraphletEstimator estimator(g, config);
        estimator.Reset(DeriveSeed(base_seed, chain));
        uint64_t done = 0;
        for (size_t p = 0; p < step_grid.size(); ++p) {
          estimator.Run(step_grid[p] - done);
          done = step_grid[p];
          estimates[p][chain] = estimator.Result().concentrations[type];
        }
      },
      threads);
  std::vector<double> nrmse(step_grid.size());
  for (size_t p = 0; p < step_grid.size(); ++p) {
    nrmse[p] = Nrmse(estimates[p], truth[type]);
  }
  return nrmse;
}

}  // namespace grw
