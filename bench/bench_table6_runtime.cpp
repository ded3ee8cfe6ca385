// Regenerates paper Table 6: wall-clock time of performing 20K random walk
// steps when estimating 5-node graphlet concentration with SRW2, SRW2CSS,
// SRW3, SRW4, versus exact enumeration — the paper's evidence that walking
// on G(d) with smaller d is faster (SRW2 in milliseconds, SRW4 in tens of
// seconds, Exact in minutes-to-hours).
//
// The SRW columns time the estimator, whose G(d) walk at d >= 3 draws each
// move by rejection and writes out no neighbor state. "SRW4 (listing)"
// times the walk alone moving the way the paper's PSRW does: each step
// writes out every neighbor state (EnumerateGdNeighbors) and picks one
// uniformly. That listing is the per-step cost behind the paper's SRW4
// column.
//
// "Exact" here is our ESU enumeration (the paper used [13]); it is timed
// fresh unless --skip-exact is given.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/estimator.h"
#include "exact/esu.h"
#include "util/timer.h"
#include "walk/subgraph_walk.h"

namespace {

// Seconds for `steps` moves of the d = 4 walk by listing: write out every
// neighbor state of the current one, then move to a uniform pick.
double ListingWalkSeconds(const grw::Graph& g, uint64_t steps,
                          uint64_t seed) {
  constexpr int kD = 4;
  grw::Rng rng(seed);
  grw::SubgraphWalk start(g, kD);
  start.Reset(rng);
  std::vector<grw::VertexId> state(start.Nodes().begin(),
                                   start.Nodes().end());
  std::vector<grw::VertexId> neighbors;
  grw::GdScratch scratch;
  grw::WallTimer timer;
  for (uint64_t s = 0; s < steps; ++s) {
    neighbors.clear();
    const uint64_t count =
        grw::EnumerateGdNeighbors(g, state, &neighbors, scratch);
    const uint64_t pick = rng.UniformInt(count);
    std::copy_n(neighbors.begin() + pick * kD, kD, state.begin());
  }
  return timer.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const uint64_t steps = flags.GetUInt64("steps", 20000);
  const bool skip_exact = flags.GetBool("skip-exact");
  const auto graphs =
      grw::bench::LoadBenchGraphs(flags, grw::DatasetTier::kSmall);

  const std::vector<grw::EstimatorConfig> methods = {
      {5, 2, false, false},
      {5, 2, true, false},
      {5, 3, false, false},
      {5, 4, false, false}};

  grw::Table table("Table 6: running time of " + std::to_string(steps) +
                   " random walk steps (5-node graphlets)");
  table.SetHeader({"Graph", "SRW2", "SRW2CSS", "SRW3", "SRW4",
                   "SRW4 (listing)", "Exact (ESU)"});

  std::vector<grw::bench::JsonMetric> metrics;
  const std::vector<std::string> method_names = {"srw2", "srw2css", "srw3",
                                                 "srw4"};
  for (const auto& bg : graphs) {
    std::vector<std::string> row = {bg.name};
    size_t method_idx = 0;
    for (const auto& method : methods) {
      // Median-ish of 3 runs for the fast methods, 1 run for slow ones.
      const int reps = method.d <= 2 ? 3 : 1;
      double best = 1e100;
      for (int r = 0; r < reps; ++r) {
        grw::GraphletEstimator estimator(bg.graph, method);
        estimator.Reset(0xbe9c + r);
        grw::WallTimer timer;
        estimator.Run(steps);
        best = std::min(best, timer.Seconds());
      }
      row.push_back(grw::Table::Duration(best));
      metrics.push_back({grw::bench::MetricNameFragment(bg.name) + "_" +
                             method_names[method_idx++] + "_s",
                         best, "s"});
    }
    const double listing = ListingWalkSeconds(bg.graph, steps, 0xbe9c);
    row.push_back(grw::Table::Duration(listing));
    metrics.push_back({grw::bench::MetricNameFragment(bg.name) +
                           "_srw4_listing_s",
                       listing, "s"});
    if (skip_exact) {
      row.push_back("(skipped)");
    } else {
      grw::WallTimer timer;
      const auto counts = grw::CountGraphletsEsu(bg.graph, 5);
      (void)counts;
      const double exact_seconds = timer.Seconds();
      row.push_back(grw::Table::Duration(exact_seconds));
      metrics.push_back({grw::bench::MetricNameFragment(bg.name) + "_exact_s",
                         exact_seconds, "s"});
    }
    table.AddRow(row);
  }
  table.Print();
  grw::bench::MaybeWriteCsv(flags, table);
  grw::bench::MaybeWriteJson(flags, "bench_table6_runtime",
                             "steps=" + std::to_string(steps), metrics);
  return 0;
}
