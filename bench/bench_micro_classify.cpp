// Micro benchmarks: graphlet-type identification — the incremental
// window maintenance of paper Section 5 (at most k-1 edge probes per
// step, fewer where the walk's move already revealed the adjacency) vs
// naive C(k,2) recomputation, plus raw classifier lookup and build cost.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/sample_window.h"
#include "eval/datasets.h"
#include "graph/access.h"
#include "graphlet/classifier.h"
#include "util/rng.h"
#include "walk/edge_walk.h"

namespace {

const grw::Graph& BenchGraph() {
  static const grw::Graph g = grw::MakeDatasetByName("brightkite-sim", 0.5);
  return g;
}

enum WindowPath : int64_t {
  kKnownAdjacency = 0,  // incremental, skipping what the walk revealed
  kProbeEveryPair = 1,  // incremental, probing every pair
  kNaive = 2,           // C(k,2) probes per valid window
};

// One step of the edge walk and its window, for any access policy.
template <class G>
void WindowStep(grw::EdgeWalk& walk, grw::Rng& rng,
                grw::SampleWindowT<G>& window, WindowPath path) {
  walk.Step(rng);
  window.Push(walk.Nodes(), 0,
              path == kKnownAdjacency ? walk.Known() : grw::KnownAdjacency{});
  if (window.Valid()) {
    benchmark::DoNotOptimize(path == kNaive ? window.MaskNaive()
                                            : window.Mask());
  }
}

// Edge probes per step of the same walk and window, counted untimed
// through an unbounded crawl view, whose fetches + cache_hits are its
// HasEdge calls.
double ProbesPerStep(WindowPath path) {
  const grw::Graph& g = BenchGraph();
  const grw::CrawlAccess crawl(g, grw::CrawlOptions{});
  grw::EdgeWalk walk(g);
  grw::Rng rng(5);
  walk.Reset(rng);
  grw::SampleWindowT<grw::CrawlAccess> window(crawl, /*k=*/5, /*l=*/4);
  constexpr int kSteps = 100000;
  for (int i = 0; i < kSteps; ++i) WindowStep(walk, rng, window, path);
  return static_cast<double>(crawl.stats().fetches +
                             crawl.stats().cache_hits) /
         kSteps;
}

// Window maintenance along a real edge walk (k = 5); the arg selects the
// WindowPath.
void BM_WindowMaintenance(benchmark::State& state) {
  const grw::Graph& g = BenchGraph();
  const auto path = static_cast<WindowPath>(state.range(0));
  grw::EdgeWalk walk(g);
  grw::Rng rng(5);
  walk.Reset(rng);
  grw::SampleWindow window(g, /*k=*/5, /*l=*/4);
  for (auto _ : state) WindowStep(walk, rng, window, path);
  state.counters["probes_per_step"] = ProbesPerStep(path);
  state.SetLabel(path == kKnownAdjacency   ? "incremental, known adjacency"
                 : path == kProbeEveryPair ? "incremental (Sec. 5)"
                                           : "naive C(k,2) queries");
}
BENCHMARK(BM_WindowMaintenance)->Arg(0)->Arg(1)->Arg(2);

void BM_ClassifierLookup(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const grw::GraphletClassifier& classifier =
      grw::GraphletClassifier::ForSize(k);
  grw::Rng rng(6);
  const uint32_t mask_space = 1u << grw::NumPairBits(k);
  std::vector<uint32_t> masks(1024);
  for (auto& m : masks) m = static_cast<uint32_t>(rng.UniformInt(mask_space));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Type(masks[i++ & 1023]));
  }
}
BENCHMARK(BM_ClassifierLookup)->Arg(3)->Arg(4)->Arg(5);

void BM_ClassifierBuild(benchmark::State& state) {
  // One-time set-up of the per-mask table (2^C(k,2) masks), with the
  // catalog already cached.
  const int k = static_cast<int>(state.range(0));
  grw::GraphletCatalog::ForSize(k);
  for (auto _ : state) {
    grw::GraphletClassifier classifier(k);
    benchmark::DoNotOptimize(classifier.Type(0));
  }
}
BENCHMARK(BM_ClassifierBuild)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_CanonicalizationFromScratch(benchmark::State& state) {
  // What classification would cost without the precomputed table:
  // min over k! permutations.
  const int k = static_cast<int>(state.range(0));
  grw::Rng rng(7);
  const uint32_t mask_space = 1u << grw::NumPairBits(k);
  std::vector<uint32_t> masks(256);
  for (auto& m : masks) m = static_cast<uint32_t>(rng.UniformInt(mask_space));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grw::CanonicalMask(masks[i++ & 255], k));
  }
}
BENCHMARK(BM_CanonicalizationFromScratch)->Arg(4)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
