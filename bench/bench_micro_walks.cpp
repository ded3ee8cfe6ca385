// Micro benchmarks: per-step cost of the walks on G(d) — the mechanism
// behind paper Table 6's runtime gap (O(1) for d <= 2, O(d^2 |E|/|V|)
// neighbor enumeration for d >= 3) — and of the full estimator variants.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "eval/datasets.h"
#include "graph/access.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace {

const grw::Graph& BenchGraph() {
  static const grw::Graph g = grw::MakeDatasetByName("brightkite-sim", 0.5);
  return g;
}

// Same graph with the adjacency acceleration index attached: walks/
// estimators produce bit-identical trajectories on it, only faster.
const grw::Graph& IndexedBenchGraph() {
  static const grw::Graph g = [] {
    grw::Graph indexed = BenchGraph();
    indexed.BuildAdjacencyIndex();
    return indexed;
  }();
  return g;
}

void BM_NodeWalkStep(benchmark::State& state) {
  const grw::Graph& g = BenchGraph();
  grw::NodeWalk walk(g, state.range(0) != 0);
  grw::Rng rng(1);
  walk.Reset(rng);
  for (auto _ : state) {
    walk.Step(rng);
    benchmark::DoNotOptimize(walk.Current());
  }
}
BENCHMARK(BM_NodeWalkStep)->Arg(0)->Arg(1);

void BM_EdgeWalkStep(benchmark::State& state) {
  const grw::Graph& g = BenchGraph();
  grw::EdgeWalk walk(g, state.range(0) != 0);
  grw::Rng rng(2);
  walk.Reset(rng);
  for (auto _ : state) {
    walk.Step(rng);
    benchmark::DoNotOptimize(walk.Nodes().data());
  }
}
BENCHMARK(BM_EdgeWalkStep)->Arg(0)->Arg(1);

// Args: {d, indexed}. One G(d) move: rejection tries, each one neighbor
// read and up to d - 2 edge probes, with no neighbor listing. The indexed
// variant answers the probes through the AdjacencyIndex (same RNG stream,
// same trajectory — only the probe cost moves).
void BM_SubgraphWalkStep(benchmark::State& state) {
  const grw::Graph& g =
      state.range(1) != 0 ? IndexedBenchGraph() : BenchGraph();
  grw::SubgraphWalk walk(g, static_cast<int>(state.range(0)));
  grw::Rng rng(3);
  walk.Reset(rng);
  for (auto _ : state) {
    walk.Step(rng);
    benchmark::DoNotOptimize(walk.Nodes().data());
  }
  state.SetLabel(std::string("SRW") + std::to_string(state.range(0)) +
                 " rejection move, " +
                 (state.range(1) != 0 ? "indexed" : "binary-search") +
                 " probes");
}
BENCHMARK(BM_SubgraphWalkStep)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Args({4, 1});

// Args: {k, d, css, indexed}.
void BM_EstimatorStep(benchmark::State& state) {
  const grw::Graph& g =
      state.range(3) != 0 ? IndexedBenchGraph() : BenchGraph();
  grw::EstimatorConfig config;
  config.k = static_cast<int>(state.range(0));
  config.d = static_cast<int>(state.range(1));
  config.css = state.range(2) != 0;
  grw::GraphletEstimator estimator(g, config);
  estimator.Reset(4);
  for (auto _ : state) {
    estimator.Run(1);
  }
  state.SetLabel(config.Name() + " k=" + std::to_string(config.k) +
                 (state.range(3) != 0 ? " indexed" : ""));
}
BENCHMARK(BM_EstimatorStep)
    ->Args({3, 1, 0, 0})
    ->Args({3, 1, 1, 0})
    ->Args({4, 2, 0, 0})
    ->Args({4, 2, 0, 1})
    ->Args({4, 2, 1, 0})
    ->Args({4, 2, 1, 1})
    ->Args({4, 3, 0, 0})
    ->Args({4, 3, 0, 1})
    ->Args({5, 2, 0, 0})
    ->Args({5, 2, 1, 0})
    ->Args({5, 4, 0, 0})
    ->Args({5, 4, 0, 1});

// A Holme–Kim graph shaped like the e2e fixture (250k nodes, 5 edges per
// node, triad probability 0.5, degree cap 500, degree-relabeled): its
// CSR (about 12 MB) is far larger than a core's L2, so a step's reads
// miss the cache. Built once.
const grw::Graph& LargeBenchGraph() {
  static const grw::Graph g = [] {
    grw::Rng rng(7);
    return grw::RelabelByDegree(grw::LargestConnectedComponent(
        grw::HolmeKim(250000, 5, 0.5, rng, 500)));
  }();
  return g;
}

// Arg: group size G. Eight SRW2CSS chains at k = 4 on the large graph,
// stepped G at a time as one interleaved group
// (GraphletEstimatorT::RunGroup), as the engine steps a pool task's
// block; G = 1 runs each chain alone. Every G walks the same eight
// chains, so only the interleaving differs. per_step is the time per
// chain step.
void BM_EstimatorGroup(benchmark::State& state) {
  const grw::Graph& g = LargeBenchGraph();
  constexpr size_t kChains = 8;
  const auto group_size = static_cast<size_t>(state.range(0));
  std::vector<std::unique_ptr<grw::GraphletEstimator>> chains;
  std::vector<grw::GraphletEstimator*> all;
  for (size_t c = 0; c < kChains; ++c) {
    chains.push_back(std::make_unique<grw::GraphletEstimator>(
        g, grw::EstimatorConfig{4, 2, true, false}));
    chains.back()->Reset(grw::DeriveSeed(5, c));
    all.push_back(chains.back().get());
  }
  const std::span<grw::GraphletEstimator* const> span(all);
  constexpr uint64_t kSteps = 1000;
  for (auto _ : state) {
    for (size_t first = 0; first < kChains; first += group_size) {
      grw::GraphletEstimator::RunGroup(span.subspan(first, group_size),
                                       kSteps);
    }
  }
  state.counters["per_step"] = benchmark::Counter(
      static_cast<double>(kSteps * kChains),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_EstimatorGroup)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// An engine answer in crawl mode builds one crawler per chain and drops
// it at the end: 16 crawlers with 4096-list caches, as the e2e
// crawl-psrw3 answer builds, over the 250k-node graph. A crawler holds
// only what it fetches, so this must not grow with the graph.
void BM_CrawlerSetup(benchmark::State& state) {
  const grw::Graph& g = LargeBenchGraph();
  grw::CrawlOptions options;
  options.cache_entries = 4096;
  constexpr size_t kCrawlers = 16;
  for (auto _ : state) {
    std::vector<grw::CrawlAccess> crawlers;
    crawlers.reserve(kCrawlers);
    for (size_t c = 0; c < kCrawlers; ++c) {
      crawlers.emplace_back(g, options, grw::DeriveSeed(9, c));
    }
    benchmark::DoNotOptimize(crawlers.data());
  }
}
BENCHMARK(BM_CrawlerSetup)->Unit(benchmark::kMicrosecond);

// The same 16 crawlers, each then fetching 2,700 distinct nodes, about
// what a crawl-psrw3 chain fetches in one answer. Each crawler's nodes
// are drawn once, uniformly from the graph, so the time is the node
// index's inserts (and any rehash), not the walk.
void BM_CrawlerFill(benchmark::State& state) {
  const grw::Graph& g = LargeBenchGraph();
  grw::CrawlOptions options;
  options.cache_entries = 4096;
  constexpr size_t kCrawlers = 16;
  constexpr size_t kFetches = 2700;
  std::vector<std::vector<grw::VertexId>> nodes(kCrawlers);
  for (size_t c = 0; c < kCrawlers; ++c) {
    grw::Rng rng(grw::DeriveSeed(10, c));
    std::vector<bool> seen(g.NumNodes());
    while (nodes[c].size() < kFetches) {
      const auto v = static_cast<grw::VertexId>(rng.UniformInt(g.NumNodes()));
      if (!seen[v]) {
        seen[v] = true;
        nodes[c].push_back(v);
      }
    }
  }
  for (auto _ : state) {
    std::vector<grw::CrawlAccess> crawlers;
    crawlers.reserve(kCrawlers);
    uint64_t degrees = 0;
    for (size_t c = 0; c < kCrawlers; ++c) {
      const grw::CrawlAccess& crawler =
          crawlers.emplace_back(g, options, grw::DeriveSeed(9, c));
      for (const grw::VertexId v : nodes[c]) degrees += crawler.Degree(v);
    }
    benchmark::DoNotOptimize(degrees);
  }
}
BENCHMARK(BM_CrawlerFill)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
