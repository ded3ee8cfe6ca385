// OSN crawling scenario: estimate the clustering coefficient and triangle
// concentration of a network that is only reachable through friend-list
// APIs — the paper's motivating use case (Sections 1 and 6.3.3).
//
// The framework crawler walks the graph through CrawlAccess — the real
// access layer: a local cache of every friend list it fetched, per-query
// accounting, and a distinct-query budget that stops the walk when the
// API allowance is spent, so its cost column is *measured*. The adapted
// Wedge-MHRW baseline runs at its documented cost model of 3 API calls
// per step (wedge_mhrw.h), so its step budget is api_budget / 3.
//
// Usage:
//   osn_crawler [--graph edge_list.txt] [--budget N_api_calls]

#include <cmath>
#include <cstdio>

#include "baselines/wedge_mhrw.h"
#include "core/estimator.h"
#include "eval/datasets.h"
#include "exact/triangle.h"
#include "graph/access.h"
#include "graph/source.h"
#include "graphlet/catalog.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

// Clustering coefficient from triangle concentration (paper Section 2.1):
// cc = 3 c32 / (2 c32 + 1).
double ClusteringFromConcentration(double c32) {
  return 3.0 * c32 / (2.0 * c32 + 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const uint64_t api_budget = flags.GetUInt64("budget", 60000);

  grw::Graph graph;
  const std::string path = flags.GetString("graph", "");
  if (!path.empty()) {
    graph = grw::GraphSource::Open(path).graph();
  } else {
    graph = grw::MakeDatasetByName("flickr-sim", 0.5);
  }
  std::printf("hidden network (crawler cannot see this): %s\n",
              graph.Summary().c_str());

  const grw::GraphletCatalog& c3 = grw::GraphletCatalog::ForSize(3);
  const int triangle = c3.IdByName("triangle");

  // The framework walk, through the crawl access layer: every neighbor
  // list it touches is fetched once and kept (unbounded cache), and the
  // walk stops by itself if it ever spends the full distinct-query
  // budget. Window edge-tests and CSS degree reads are answered from the
  // cache, so a step costs far less than one API call on average.
  grw::CrawlAccess::Options crawl_opt;
  crawl_opt.query_budget = api_budget;
  grw::CrawlAccess api(graph, crawl_opt);
  grw::EstimatorConfig config{3, 1, true, true};  // SRW1CSSNB
  grw::GraphletEstimatorT<grw::CrawlAccess> estimator(api, config);
  estimator.Reset(2026);
  // The distinct-query budget is the binding constraint: the cache makes
  // most steps free, so the walk gets many more than api_budget steps
  // out of the allowance. The step count is only a generous safety cap
  // (a budget above the reachable node count can never be spent).
  estimator.Run(20 * api_budget);
  const double rw_c32 = estimator.Result().concentrations[triangle];
  const grw::CrawlStats& cost = api.stats();

  // The MHRW baseline costs 3 calls per step -> one third of the steps.
  grw::WedgeMhrw mhrw(graph);
  mhrw.Reset(2027);
  mhrw.Run(api_budget / grw::WedgeMhrw::kApiCallsPerStep);
  const double mhrw_c32 = mhrw.Concentrations()[triangle];

  // What the operator (with full data) would compute.
  const double exact_cc = grw::GlobalClusteringCoefficient(graph);
  const double exact_c32 = exact_cc / (3.0 - 2.0 * exact_cc);

  grw::Table table("crawl results at a budget of " +
                   std::to_string(api_budget) + " API calls");
  table.SetHeader({"quantity", "SRW1CSSNB", "Wedge-MHRW", "exact"});
  table.AddRow({"triangle concentration c32", grw::Table::Num(rw_c32, 5),
                grw::Table::Num(mhrw_c32, 5),
                grw::Table::Num(exact_c32, 5)});
  table.AddRow({"clustering coefficient",
                grw::Table::Num(ClusteringFromConcentration(rw_c32), 5),
                grw::Table::Num(ClusteringFromConcentration(mhrw_c32), 5),
                grw::Table::Num(exact_cc, 5)});
  table.AddRow({"relative error (c32)",
                grw::Table::Num(std::abs(rw_c32 - exact_c32) / exact_c32, 4),
                grw::Table::Num(std::abs(mhrw_c32 - exact_c32) / exact_c32,
                                4),
                "-"});
  table.Print();
  std::printf(
      "framework crawl cost: %llu distinct friend-list fetches for %llu "
      "steps (%.1f%% served from the local cache)%s\n",
      static_cast<unsigned long long>(cost.distinct_fetches),
      static_cast<unsigned long long>(estimator.Steps()),
      100.0 * cost.HitRate(),
      api.BudgetExhausted() ? " — budget exhausted" : "");
  std::printf("nodes touched: %.2f%% of the graph\n",
              100.0 * static_cast<double>(cost.distinct_fetches) /
                  graph.NumNodes());
  return 0;
}
