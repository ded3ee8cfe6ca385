// Micro benchmarks: CSS weight evaluation through the compiled interior-
// coefficient tables, at d <= 2 (closed-form state degrees) and d >= 3
// (counted G(d) state degrees).

#include <benchmark/benchmark.h>

#include <vector>

#include "core/css.h"
#include "eval/datasets.h"
#include "graphlet/classifier.h"
#include "util/rng.h"
#include "walk/subgraph_walk.h"

namespace {

struct Sample {
  std::vector<grw::VertexId> nodes;
  uint32_t mask;
};

const grw::Graph& BenchGraph() {
  static const grw::Graph g = grw::MakeDatasetByName("brightkite-sim", 0.5);
  return g;
}

// Random connected k-sets with their masks.
std::vector<Sample> MakeSamples(const grw::Graph& g, int k, int count) {
  grw::Rng rng(11);
  std::vector<Sample> samples;
  while (static_cast<int>(samples.size()) < count) {
    Sample s;
    s.nodes.push_back(
        static_cast<grw::VertexId>(rng.UniformInt(g.NumNodes())));
    while (static_cast<int>(s.nodes.size()) < k) {
      const grw::VertexId anchor = s.nodes[rng.UniformInt(s.nodes.size())];
      const grw::VertexId w = g.Neighbor(
          anchor, static_cast<uint32_t>(rng.UniformInt(g.Degree(anchor))));
      if (std::find(s.nodes.begin(), s.nodes.end(), w) == s.nodes.end()) {
        s.nodes.push_back(w);
      }
    }
    s.mask = 0;
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        if (g.HasEdge(s.nodes[i], s.nodes[j])) {
          s.mask = grw::MaskWithEdge(s.mask, k, i, j);
        }
      }
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

void BM_CssTableEval(benchmark::State& state) {
  const grw::Graph& g = BenchGraph();
  const int k = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const grw::CssTable& table = grw::CssTable::For(k, d);
  const grw::GraphletClassifier& classifier =
      grw::GraphletClassifier::ForSize(k);
  const auto samples = MakeSamples(g, k, 256);
  grw::GdScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    const Sample& s = samples[i++ & 255];
    benchmark::DoNotOptimize(
        table.Eval(classifier.Info(s.mask), s.nodes, g, false, scratch));
  }
}
BENCHMARK(BM_CssTableEval)
    ->Args({3, 1})
    ->Args({4, 2})
    ->Args({5, 2})
    ->Args({5, 3})
    ->Args({6, 3})
    ->Args({6, 4});

}  // namespace

BENCHMARK_MAIN();
