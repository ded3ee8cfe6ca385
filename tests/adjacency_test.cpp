// AdjacencyIndex correctness: indexed HasEdge must be indistinguishable
// from the binary-search reference on every input, and attaching an index
// must leave every estimate bit-identical (the index may only change query
// cost, never query results — the walk consumes the same RNG stream either
// way).

#include <gtest/gtest.h>

#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

// Exhaustive u,v sweep (including u == v and out-of-range ids) comparing
// the indexed path against the binary-search reference.
void ExpectIndexMatchesReference(const Graph& indexed) {
  ASSERT_NE(indexed.adjacency_index(), nullptr);
  const VertexId n = indexed.NumNodes();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(indexed.HasEdge(u, v), indexed.HasEdgeBinarySearch(u, v))
          << "u=" << u << " v=" << v;
    }
  }
  EXPECT_FALSE(indexed.HasEdge(n, 0));
  EXPECT_FALSE(indexed.HasEdge(0, n));
  EXPECT_FALSE(indexed.HasEdge(n, n + 7));
}

TEST(AdjacencyIndexTest, MatchesBinarySearchOnErdosRenyi) {
  Rng rng(11);
  Graph g = ErdosRenyi(300, 900, rng);  // typically has 0/1-degree nodes
  g.BuildAdjacencyIndex();
  ExpectIndexMatchesReference(g);
}

TEST(AdjacencyIndexTest, MatchesBinarySearchOnBarabasiAlbert) {
  Rng rng(12);
  Graph g = BarabasiAlbert(400, 3, rng);
  AdjacencyIndexOptions options;
  options.min_hub_degree = 8;  // force real hub rows on a 400-node graph
  g.BuildAdjacencyIndex(options);
  EXPECT_GT(g.adjacency_index()->num_hubs(), 0u);
  ExpectIndexMatchesReference(g);
}

TEST(AdjacencyIndexTest, HubThresholdBoundaryDegrees) {
  // Star: one max-degree hub, all leaves degree 1. Sweep explicit
  // thresholds across the boundary (leaves in / hub only / nobody).
  Graph g = Star(64);
  for (uint32_t threshold : {1u, 2u, 63u, 64u}) {
    Graph indexed = g;
    AdjacencyIndexOptions options;
    options.hub_degree_threshold = threshold;
    indexed.BuildAdjacencyIndex(options);
    ExpectIndexMatchesReference(indexed);
  }
  // threshold 1 admits every non-isolated node as a hub.
  Graph all_hubs = g;
  AdjacencyIndexOptions options;
  options.hub_degree_threshold = 1;
  all_hubs.BuildAdjacencyIndex(options);
  EXPECT_EQ(all_hubs.adjacency_index()->num_hubs(), 64u);
}

TEST(AdjacencyIndexTest, IsolatedAndDegreeOneNodes) {
  // Hand-built CSR: node 0 isolated, nodes 1-2 a pendant edge, 3-5 a
  // triangle.
  Graph g(std::vector<uint64_t>{0, 0, 1, 2, 4, 6, 8},
          std::vector<VertexId>{2, 1, 4, 5, 3, 5, 3, 4});
  g.BuildAdjacencyIndex();
  ExpectIndexMatchesReference(g);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(3, 5));
}

TEST(AdjacencyIndexTest, MemoryBudgetCapsHubRows) {
  Rng rng(13);
  Graph g = BarabasiAlbert(500, 4, rng);
  AdjacencyIndexOptions tight;
  tight.min_hub_degree = 1;
  tight.hub_memory_budget = 3 * ((500 + 63) / 64) * 8;  // room for 3 rows
  Graph indexed = g;
  indexed.BuildAdjacencyIndex(tight);
  EXPECT_LE(indexed.adjacency_index()->bitset_bytes(),
            tight.hub_memory_budget);
  EXPECT_LE(indexed.adjacency_index()->num_hubs(), 3u);
  ExpectIndexMatchesReference(indexed);

  AdjacencyIndexOptions none;
  none.hub_memory_budget = 0;  // no rows fit: signatures + search only
  Graph unhubbed = g;
  unhubbed.BuildAdjacencyIndex(none);
  EXPECT_EQ(unhubbed.adjacency_index()->num_hubs(), 0u);
  ExpectIndexMatchesReference(unhubbed);
}

TEST(AdjacencyIndexTest, BuildIsThreadCountInvariant) {
  Rng rng(14);
  const Graph g = HolmeKim(800, 4, 0.4, rng);
  std::vector<Graph> copies;
  for (unsigned threads : {1u, 2u, 7u}) {
    AdjacencyIndexOptions options;
    options.min_hub_degree = 8;
    options.threads = threads;
    Graph indexed = g;
    indexed.BuildAdjacencyIndex(options);
    copies.push_back(indexed);
  }
  for (const Graph& indexed : copies) {
    EXPECT_EQ(indexed.adjacency_index()->num_hubs(),
              copies[0].adjacency_index()->num_hubs());
    EXPECT_EQ(indexed.adjacency_index()->hub_threshold(),
              copies[0].adjacency_index()->hub_threshold());
    ExpectIndexMatchesReference(indexed);
  }
}

TEST(AdjacencyIndexTest, RandomPairsOnLargerGraph) {
  Rng rng(15);
  Graph g = HolmeKim(5000, 5, 0.3, rng);
  g.BuildAdjacencyIndex();
  Rng pairs(99);
  for (int i = 0; i < 200000; ++i) {
    const auto u = static_cast<VertexId>(pairs.UniformInt(g.NumNodes()));
    const auto v = static_cast<VertexId>(pairs.UniformInt(g.NumNodes()));
    ASSERT_EQ(g.HasEdge(u, v), g.HasEdgeBinarySearch(u, v))
        << "u=" << u << " v=" << v;
  }
  // Positive queries: every CSR edge must be found.
  for (VertexId u = 0; u < g.NumNodes(); ++u) {
    for (VertexId w : g.Neighbors(u)) {
      ASSERT_TRUE(g.HasEdge(u, w));
    }
  }
}

TEST(GdEnumerationTest, AcceleratedMatchesReference) {
  Rng rng(21);
  const Graph g = HolmeKim(600, 4, 0.5, rng);
  for (int d : {3, 4, 5}) {
    SubgraphWalk walk(g, d);
    Rng walk_rng(7 * d);
    walk.Reset(walk_rng);
    GdScratch scratch;  // reused across states: catches stale-state bugs
    for (int step = 0; step < 40; ++step) {
      std::vector<VertexId> fast;
      std::vector<VertexId> reference;
      const uint64_t count =
          EnumerateGdNeighbors(g, walk.Nodes(), &fast, scratch);
      EnumerateGdNeighborsReference(g, walk.Nodes(), &reference);
      ASSERT_EQ(fast, reference) << "d=" << d << " step=" << step;
      ASSERT_EQ(count, fast.size() / d);
      ASSERT_EQ(SubgraphStateDegree(g, walk.Nodes(), scratch), count);
      walk.Step(walk_rng);
    }
  }
}

TEST(GdEnumerationTest, MatchesReferenceWithIndexAttached) {
  Rng rng(22);
  Graph plain = HolmeKim(600, 4, 0.5, rng);
  Graph indexed = plain;
  AdjacencyIndexOptions options;
  options.min_hub_degree = 8;
  indexed.BuildAdjacencyIndex(options);

  SubgraphWalk walk(plain, 4);
  Rng walk_rng(5);
  walk.Reset(walk_rng);
  GdScratch scratch;
  for (int step = 0; step < 40; ++step) {
    std::vector<VertexId> with_index;
    std::vector<VertexId> without;
    EnumerateGdNeighbors(indexed, walk.Nodes(), &with_index, scratch);
    EnumerateGdNeighbors(plain, walk.Nodes(), &without, scratch);
    ASSERT_EQ(with_index, without) << "step=" << step;
    walk.Step(walk_rng);
  }
}

// The headline guarantee: estimates are bit-identical with the index on
// or off, for the same seed — every double in the result compares equal.
void ExpectBitIdentical(const EstimateResult& a, const EstimateResult& b) {
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
    EXPECT_EQ(a.concentrations[i], b.concentrations[i]) << "conc " << i;
    EXPECT_EQ(a.samples[i], b.samples[i]) << "samples " << i;
  }
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.valid_samples, b.valid_samples);
}

TEST(AdjacencyDeterminismTest, EstimatesBitIdenticalIndexOnOff) {
  Rng rng(31);
  Graph plain = HolmeKim(1500, 5, 0.4, rng);
  Graph indexed = plain;
  AdjacencyIndexOptions options;
  options.min_hub_degree = 8;
  indexed.BuildAdjacencyIndex(options);

  for (const auto& [k, d, css] : std::vector<std::tuple<int, int, bool>>{
           {4, 2, true}, {4, 3, false}, {5, 2, false}, {5, 4, false}}) {
    EstimatorConfig config;
    config.k = k;
    config.d = d;
    config.css = css;
    const uint64_t steps = d >= 4 ? 300 : 5000;
    const EstimateResult off =
        GraphletEstimator::Estimate(plain, config, steps, 1234);
    const EstimateResult on =
        GraphletEstimator::Estimate(indexed, config, steps, 1234);
    ExpectBitIdentical(on, off);
  }
}

TEST(AdjacencyDeterminismTest, EngineBitIdenticalIndexOnOffAnyThreads) {
  Rng rng(32);
  Graph plain = HolmeKim(1200, 4, 0.4, rng);
  Graph indexed = plain;
  indexed.BuildAdjacencyIndex();

  EstimatorConfig config;
  config.k = 4;
  config.d = 2;
  config.css = true;

  EngineOptions options;
  options.chains = 4;
  options.max_steps = 4000;
  options.base_seed = 77;

  std::vector<EstimateResult> merged;
  for (const Graph* g : {&plain, &indexed}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      EngineOptions run_options = options;
      run_options.threads = threads;
      EstimationEngine engine(*g, config, run_options);
      merged.push_back(engine.Run().merged);
    }
  }
  for (size_t i = 1; i < merged.size(); ++i) {
    ExpectBitIdentical(merged[i], merged[0]);
  }
}

TEST(SimdParityTest, VectorContainsAvx2MatchesLinearScanOnSortedLists) {
  // Randomized property for the branchless masked membership scan that
  // resolves short/mid lists in HasEdge: identical verdicts to the
  // scalar early-exit scan on every sorted list — random lengths 0..80
  // (crossing several 16-entry blocks), probes mixing present entries,
  // absent in-range values, below-front and past-back values, and id 0
  // (which must not alias the masked load's zero fill).
  if (!SignatureProbeBatchHasAvx2()) {
    GTEST_SKIP() << "no AVX2 at runtime; dispatched path is scalar";
  }
  Rng rng(20240609);
  for (int trial = 0; trial < 10000; ++trial) {
    const size_t len = rng.UniformInt(81);
    std::vector<VertexId> list(len);
    for (size_t i = 0; i < len; ++i) {
      list[i] = (trial % 2 == 0)
                    ? static_cast<VertexId>(rng.UniformInt(200))
                    : static_cast<VertexId>(rng());
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    for (int probe = 0; probe < 8; ++probe) {
      VertexId v;
      switch (probe) {
        case 0: v = 0; break;
        case 1: v = ~VertexId{0}; break;
        case 2:
          v = list.empty() ? 7
                           : list[rng.UniformInt(list.size())];  // present
          break;
        default: v = static_cast<VertexId>(rng()); break;
      }
      const bool scalar =
          AdjacencyIndex::LinearContains(list.data(), list.size(), v);
      const bool avx2 =
          AdjacencyIndex::VectorContainsAvx2(list.data(), list.size(), v);
      ASSERT_EQ(scalar, avx2)
          << "trial " << trial << " len " << list.size() << " v " << v;
      ASSERT_EQ(scalar, std::binary_search(list.begin(), list.end(), v));
    }
  }
}

TEST(GraphTest, MaxDegreeCachedAndSharedAcrossCopies) {
  Rng rng(41);
  const Graph g = BarabasiAlbert(300, 3, rng);
  uint32_t expected = 0;
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    expected = std::max(expected, g.Degree(v));
  }
  EXPECT_EQ(g.MaxDegree(), expected);
  EXPECT_EQ(g.MaxDegree(), expected);  // cached path
  const Graph copy = g;                // copies share the cache
  EXPECT_EQ(copy.MaxDegree(), expected);
}

}  // namespace
}  // namespace grw
