// Quickstart: estimate 4-node graphlet concentrations of a graph with the
// paper's recommended method (SRW2CSS) and compare with exact counts.
//
// Usage:
//   quickstart [--graph edge_list.txt] [--steps N] [--k 3|4|5] [--d D]
//
// Without --graph a synthetic clustered social graph is generated, so the
// example runs out of the box.

#include <cstdio>
#include <string>

#include "core/estimator.h"
#include "core/paper_ids.h"
#include "eval/datasets.h"
#include "exact/exact.h"
#include "graph/source.h"
#include "graphlet/catalog.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const int k = flags.GetInt32("k", 4);
  const int d = flags.GetInt32("d", 2);
  const uint64_t steps = flags.GetUInt64("steps", 200000);

  // 1. Load or synthesize a graph (simple, connected).
  grw::Graph graph;
  const std::string path = flags.GetString("graph", "");
  if (!path.empty()) {
    graph = grw::GraphSource::Open(path).graph();  // format auto-detected
  } else {
    graph = grw::MakeDatasetByName("brightkite-sim");
  }
  std::printf("graph: %s\n", graph.Summary().c_str());

  // 2. Configure the estimator: walk on G(d), CSS re-weighting on.
  grw::EstimatorConfig config;
  config.k = k;
  config.d = d;
  // CSS at d <= 2, where its state degrees are closed forms (as grw_serve
  // defaults); at d >= 3 each table entry counts a G(d) state degree.
  config.css = d <= 2;
  grw::GraphletEstimator estimator(graph, config);
  estimator.Reset(/*seed=*/42);

  grw::WallTimer timer;
  estimator.Run(steps);
  const grw::EstimateResult result = estimator.Result();
  std::printf("%s: %llu steps in %.1f ms (%llu valid samples)\n",
              config.Name().c_str(),
              static_cast<unsigned long long>(result.steps), timer.Millis(),
              static_cast<unsigned long long>(result.valid_samples));

  // 3. Compare against exact ground truth.
  const auto exact = grw::ExactConcentrations(graph, k);
  const auto& order = grw::PaperOrder(k);
  const auto& catalog = grw::GraphletCatalog::ForSize(k);
  grw::Table table("estimated vs exact " + std::to_string(k) +
                   "-node graphlet concentration");
  table.SetHeader({"graphlet", "name", "estimated", "exact", "rel.err"});
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const int id = order[pos];
    const double est = result.concentrations[id];
    const double ref = exact[id];
    table.AddRow({grw::PaperLabel(k, static_cast<int>(pos)),
                  catalog.Get(id).name, grw::Table::Sci(est),
                  grw::Table::Sci(ref),
                  ref > 0 ? grw::Table::Num(std::abs(est - ref) / ref, 3)
                          : "n/a"});
  }
  table.Print();
  return 0;
}
