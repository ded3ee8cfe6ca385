// Micro benchmarks: exact counters (triangles, formula-based 4-node, ESU
// enumeration and counting) and baseline samplers (alias
// construction/sampling, wedge and path samples).

#include <benchmark/benchmark.h>

#include "baselines/alias.h"
#include "baselines/path_sampling.h"
#include "baselines/wedge_sampling.h"
#include "eval/datasets.h"
#include "exact/esu.h"
#include "exact/four_count.h"
#include "exact/triangle.h"
#include "util/rng.h"

namespace {

const grw::Graph& SmallGraph() {
  static const grw::Graph g = grw::MakeDatasetByName("brightkite-sim", 0.25);
  return g;
}

void BM_CountTriangles(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(g, state.range(0) != 0,
                                            state.range(0) != 0)
                                 .total);
  }
  state.SetLabel(state.range(0) ? "with per-edge/node" : "total only");
}
BENCHMARK(BM_CountTriangles)->Arg(0)->Arg(1);

void BM_FourNodeFormulas(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(grw::CountFourNodeGraphlets(g));
  }
}
BENCHMARK(BM_FourNodeFormulas);

void BM_EsuEnumeration(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grw::CountConnectedSubgraphs(g, k));
  }
}
BENCHMARK(BM_EsuEnumeration)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// Enumeration plus classification: the gap to BM_EsuEnumeration at the same
// k is what reading each subgraph's adjacency mask costs.
void BM_EsuCounts(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grw::CountGraphletsEsu(g, k));
  }
}
BENCHMARK(BM_EsuCounts)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_AliasConstruction(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  std::vector<double> weights(g.NumNodes());
  for (grw::VertexId v = 0; v < g.NumNodes(); ++v) {
    const double d = g.Degree(v);
    weights[v] = d * (d - 1) / 2;
  }
  for (auto _ : state) {
    grw::AliasTable table(weights);
    benchmark::DoNotOptimize(table.TotalWeight());
  }
}
BENCHMARK(BM_AliasConstruction);

void BM_WedgeSample(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  grw::WedgeSampler sampler(g);
  grw::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleClosedWedge(rng));
  }
}
BENCHMARK(BM_WedgeSample);

void BM_PathSample(benchmark::State& state) {
  const grw::Graph& g = SmallGraph();
  grw::PathSampler sampler(g);
  grw::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Run(64, rng).samples);
  }
  state.SetLabel("64 samples per iteration");
}
BENCHMARK(BM_PathSample);

}  // namespace

BENCHMARK_MAIN();
