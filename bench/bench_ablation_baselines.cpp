// Extension bench (not a paper figure): the framework's recommended
// methods against the two restricted-access alternatives the paper cites
// but does not bench head-to-head — GUISE (Bhuiyan et al., MH-uniform over
// 3/4/5-node graphlets) and the Hardiman-Katzir clustering estimator —
// at an equal step budget.
//
// Expected shape: SRW1CSSNB beats both on 3-node accuracy per step (and
// GUISE additionally pays a far higher per-step cost and rejects a large
// share of its proposals); SRW2CSS beats GUISE on 4-node accuracy.

#include <cstdio>

#include "baselines/guise.h"
#include "baselines/hardiman_katzir.h"
#include "bench_common.h"
#include "core/estimator.h"
#include "eval/experiment.h"
#include "graphlet/catalog.h"
#include "util/chain_pool.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const uint64_t steps = flags.GetUInt64("steps", 20000);
  const int sims = grw::bench::SimCount(flags, 50, 1000);
  const auto graphs =
      grw::bench::LoadBenchGraphs(flags, grw::DatasetTier::kSmall);

  const auto& c3 = grw::GraphletCatalog::ForSize(3);
  const auto& c4 = grw::GraphletCatalog::ForSize(4);
  const int triangle = c3.IdByName("triangle");
  const int clique4 = c4.IdByName("4-clique");

  grw::Table table(
      "Ablation: framework vs GUISE vs Hardiman-Katzir "
      "(NRMSE at " + std::to_string(steps) + " steps; time per chain)");
  table.SetHeader({"Graph", "g32 SRW1CSSNB", "g32 HK", "g32 GUISE",
                   "g46 SRW2CSS", "g46 GUISE", "GUISE reject%",
                   "t SRW1CSSNB", "t GUISE"});

  for (const auto& bg : graphs) {
    const auto truth3 =
        grw::CachedExactConcentrations(bg.graph, 3, bg.cache_key);
    const auto truth4 =
        grw::CachedExactConcentrations(bg.graph, 4, bg.cache_key);

    const auto rw3 = grw::RunConcentrationChains(
        bg.graph, {3, 1, true, true}, steps, sims, 0xab1);
    const auto rw4 = grw::RunConcentrationChains(
        bg.graph, {4, 2, true, false}, steps, sims, 0xab2);

    const auto hk = grw::RunCustomChains(sims, [&](int chain) {
      grw::HardimanKatzir estimator(bg.graph);
      estimator.Reset(grw::DeriveSeed(0xab3, chain));
      estimator.Run(steps);
      return estimator.Concentrations();
    });

    // GUISE: one instance per chain; also time one representative chain
    // and collect the rejection rate.
    double guise_seconds = 0.0;
    double reject_sum = 0.0;
    std::vector<std::vector<double>> guise3(sims);
    std::vector<std::vector<double>> guise4(sims);
    {
      grw::WallTimer timer;
      grw::Guise probe(bg.graph);
      probe.Reset(grw::DeriveSeed(0xab4, 0));
      probe.Run(steps);
      guise_seconds = timer.Seconds();
      guise3[0] = probe.Concentrations(3);
      guise4[0] = probe.Concentrations(4);
      reject_sum += probe.RejectionRate();
    }
    grw::ChainPool::Shared().ForEach(sims - 1, [&](size_t i) {
      grw::Guise estimator(bg.graph);
      estimator.Reset(grw::DeriveSeed(0xab4, i + 1));
      estimator.Run(steps);
      guise3[i + 1] = estimator.Concentrations(3);
      guise4[i + 1] = estimator.Concentrations(4);
    });
    grw::ChainEstimates guise3_chains{std::move(guise3), guise_seconds};
    grw::ChainEstimates guise4_chains{std::move(guise4), guise_seconds};

    table.AddRow(
        {bg.name,
         grw::Table::Num(grw::NrmseOfType(rw3, truth3, triangle), 4),
         grw::Table::Num(grw::NrmseOfType(hk, truth3, triangle), 4),
         grw::Table::Num(grw::NrmseOfType(guise3_chains, truth3, triangle),
                         4),
         grw::Table::Num(grw::NrmseOfType(rw4, truth4, clique4), 4),
         grw::Table::Num(grw::NrmseOfType(guise4_chains, truth4, clique4),
                         4),
         grw::Table::Num(100.0 * reject_sum, 1),
         grw::Table::Duration(rw3.seconds_per_chain),
         grw::Table::Duration(guise_seconds)});
  }
  table.Print();
  grw::bench::MaybeWriteCsv(flags, table);
  std::vector<grw::bench::JsonMetric> metrics;
  grw::bench::AppendTableMetrics(table, &metrics);
  grw::bench::MaybeWriteJson(flags, "bench_ablation_baselines",
                             "steps=" + std::to_string(steps) +
                                 ", sims=" + std::to_string(sims),
                             metrics);
  return 0;
}
