// Regenerates paper Figure 8: the framework's best 3-node method
// (SRW1CSSNB) against the adapted wedge sampling via Metropolis-Hastings
// (Wedge-MHRW, Algorithm 4) on restricted-access graphs.
//   (a) triangle-concentration NRMSE at a fixed step budget, all datasets;
//   (b) convergence on the two largest datasets.
// Note the crawl-cost asymmetry the paper highlights: Wedge-MHRW spends 3
// API calls per step vs 1 for the framework.

#include <cstdio>
#include <vector>

#include "baselines/wedge_mhrw.h"
#include "bench_common.h"
#include "core/estimator.h"
#include "eval/experiment.h"
#include "graphlet/catalog.h"
#include "util/chain_pool.h"
#include "util/rng.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const uint64_t steps = flags.GetUInt64("steps", 20000);
  const int sims = grw::bench::SimCount(flags, 100, 1000);
  const auto& c3 = grw::GraphletCatalog::ForSize(3);
  const int triangle = c3.IdByName("triangle");
  const grw::EstimatorConfig method{3, 1, true, true};

  // Panel (a): accuracy at fixed steps.
  const auto graphs =
      grw::bench::LoadBenchGraphs(flags, grw::DatasetTier::kLarge);
  grw::Table table("Figure 8a: NRMSE of triangle concentration "
                   "(steps=" + std::to_string(steps) + ")");
  table.SetHeader({"Graph", "SRW1CSSNB", "Wedge-MHRW"});
  for (const auto& bg : graphs) {
    const auto truth =
        grw::CachedExactConcentrations(bg.graph, 3, bg.cache_key);
    const auto rw_chains = grw::RunConcentrationChains(
        bg.graph, method, steps, sims, 0xf8a);
    const auto mhrw_chains = grw::RunCustomChains(sims, [&](int chain) {
      grw::WedgeMhrw mhrw(bg.graph);
      mhrw.Reset(grw::DeriveSeed(0x3e46e, chain));
      mhrw.Run(steps);
      return mhrw.Concentrations();
    });
    table.AddRow({bg.name,
                  grw::Table::Num(
                      grw::NrmseOfType(rw_chains, truth, triangle), 4),
                  grw::Table::Num(
                      grw::NrmseOfType(mhrw_chains, truth, triangle), 4)});
  }
  table.Print();
  grw::bench::MaybeWriteCsv(flags, table);
  std::vector<grw::bench::JsonMetric> metrics;
  grw::bench::AppendTableMetrics(table, &metrics, "fixed_");

  // Panel (b): convergence on the two largest datasets.
  for (const char* dataset : {"twitter-sim", "sinaweibo-sim"}) {
    if (flags.Has("graph")) break;  // override mode has no registry names
    const double scale = flags.GetDouble("scale", 1.0);
    const grw::Graph g = grw::MakeDatasetByName(dataset, scale);
    const auto truth = grw::CachedExactConcentrations(
        g, 3, grw::DatasetCacheKey(dataset, scale));
    std::vector<uint64_t> grid;
    for (uint64_t s = 4000; s <= 20000; s += 4000) grid.push_back(s);

    grw::Table conv("Figure 8b: convergence on " + std::string(dataset));
    conv.SetHeader({"Steps", "SRW1CSSNB", "Wedge-MHRW"});
    const auto rw_curve = grw::ConvergenceNrmse(g, method, grid, sims,
                                                0xf8b, truth, triangle);
    // MHRW convergence: advance shared chains through the grid on the
    // engine's persistent pool.
    std::vector<std::vector<double>> mhrw_est(
        grid.size(), std::vector<double>(sims, 0.0));
    grw::ChainPool::Shared().ForEach(sims, [&](size_t chain) {
      grw::WedgeMhrw mhrw(g);
      mhrw.Reset(grw::DeriveSeed(0xadf8b, chain));
      uint64_t done = 0;
      for (size_t p = 0; p < grid.size(); ++p) {
        mhrw.Run(grid[p] - done);
        done = grid[p];
        mhrw_est[p][chain] = mhrw.Concentrations()[triangle];
      }
    });
    for (size_t p = 0; p < grid.size(); ++p) {
      conv.AddRow({grw::Table::Int(static_cast<long long>(grid[p])),
                   grw::Table::Num(rw_curve[p], 4),
                   grw::Table::Num(grw::Nrmse(mhrw_est[p],
                                              truth[triangle]), 4)});
    }
    conv.Print();
    grw::bench::AppendTableMetrics(
        conv, &metrics,
        grw::bench::MetricNameFragment(dataset) + "_steps");
  }
  std::printf("crawl cost note: Wedge-MHRW spends %d API calls per step "
              "vs 1 for SRW1CSSNB (Section 6.3.3)\n",
              grw::WedgeMhrw::kApiCallsPerStep);
  grw::bench::MaybeWriteJson(flags, "bench_fig8_wedge_mhrw",
                             "steps=" + std::to_string(steps) +
                                 ", sims=" + std::to_string(sims),
                             metrics);
  return 0;
}
