// Cross-validation of the exact counters: closed-form triangle and 4-node
// counts against ESU enumeration, on both hand-built fixtures and random
// graphs (property-style sweeps).

#include "exact/exact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "exact/esu.h"
#include "exact/four_count.h"
#include "exact/triangle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graphlet/catalog.h"
#include "graphlet/classifier.h"
#include "graphlet/noninduced.h"
#include "util/rng.h"

namespace grw {
namespace {

TEST(TriangleTest, HandComputedFixtures) {
  EXPECT_EQ(CountTriangles(Complete(4)).total, 4u);
  EXPECT_EQ(CountTriangles(Complete(5)).total, 10u);
  EXPECT_EQ(CountTriangles(Cycle(5)).total, 0u);
  EXPECT_EQ(CountTriangles(Star(6)).total, 0u);
  // Karate club has 45 triangles (classic known value).
  EXPECT_EQ(CountTriangles(KarateClub()).total, 45u);
}

TEST(TriangleTest, PerNodeAndPerEdgeSumsAreConsistent) {
  Rng rng(11);
  const Graph g = HolmeKim(300, 4, 0.4, rng);
  const TriangleCounts tc = CountTriangles(g);
  uint64_t node_sum = 0;
  for (uint64_t c : tc.per_node) node_sum += c;
  EXPECT_EQ(node_sum, 3 * tc.total);  // each triangle has 3 nodes
  uint64_t edge_sum = 0;
  for (uint32_t c : tc.per_edge) edge_sum += c;
  EXPECT_EQ(edge_sum, 3 * tc.total);  // ... and 3 edges
}

TEST(EdgeIndexTest, RoundTrips) {
  Rng rng(3);
  const Graph g = ErdosRenyi(50, 200, rng);
  const EdgeIndex index(g);
  EXPECT_EQ(index.NumEdges(), g.NumEdges());
  for (uint64_t id = 0; id < index.NumEdges(); ++id) {
    const auto [u, v] = index.Endpoints(id);
    EXPECT_LT(u, v);
    EXPECT_TRUE(g.HasEdge(u, v));
    EXPECT_EQ(index.Id(u, v), id);
    EXPECT_EQ(index.Id(v, u), id);
  }
}

TEST(EsuTest, CountsMatchBruteForceOnSmallGraphs) {
  // Brute force: all C(n, k) subsets, keep connected ones.
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = ErdosRenyi(12, 20 + trial, rng);
    for (int k = 3; k <= 5; ++k) {
      uint64_t brute = 0;
      std::vector<VertexId> subset(k);
      const VertexId n = g.NumNodes();
      // Enumerate k-subsets with an odometer.
      std::vector<int> idx(k);
      for (int i = 0; i < k; ++i) idx[i] = i;
      if (n >= static_cast<VertexId>(k)) {
        while (true) {
          for (int i = 0; i < k; ++i) {
            subset[i] = static_cast<VertexId>(idx[i]);
          }
          uint32_t visited = 1;
          uint32_t frontier = 1;
          while (frontier) {
            uint32_t next = 0;
            for (int i = 0; i < k; ++i) {
              if (!((frontier >> i) & 1u)) continue;
              for (int j = 0; j < k; ++j) {
                if (!((visited >> j) & 1u) &&
                    g.HasEdge(subset[i], subset[j])) {
                  next |= 1u << j;
                }
              }
            }
            visited |= next;
            frontier = next;
          }
          if (visited == (1u << k) - 1u) ++brute;
          int pos = k - 1;
          while (pos >= 0 && idx[pos] == static_cast<int>(n) - k + pos) {
            --pos;
          }
          if (pos < 0) break;
          ++idx[pos];
          for (int i = pos + 1; i < k; ++i) idx[i] = idx[i - 1] + 1;
        }
      }
      EXPECT_EQ(CountConnectedSubgraphs(g, k), brute)
          << "trial=" << trial << " k=" << k;
    }
  }
}

TEST(EsuTest, CliqueSubgraphCounts) {
  // K6 has C(6, k) connected k-subgraphs for every k.
  const Graph g = Complete(6);
  EXPECT_EQ(CountConnectedSubgraphs(g, 3), 20u);
  EXPECT_EQ(CountConnectedSubgraphs(g, 4), 15u);
  EXPECT_EQ(CountConnectedSubgraphs(g, 5), 6u);
}

TEST(EsuTest, GraphletCountsOnFixtures) {
  const GraphletCatalog& c4 = GraphletCatalog::ForSize(4);
  // C4 (4-cycle graph): exactly one 4-node graphlet, the cycle.
  const auto cycle_counts = CountGraphletsEsu(Cycle(4), 4);
  for (int id = 0; id < c4.NumTypes(); ++id) {
    EXPECT_EQ(cycle_counts[id], id == c4.IdByName("4-cycle") ? 1 : 0);
  }
  // K5: every 4-subset is a 4-clique.
  const auto k5_counts = CountGraphletsEsu(Complete(5), 4);
  EXPECT_EQ(k5_counts[c4.IdByName("4-clique")], 5);
}

// The reference classification CountGraphletsEsu replaced: C(k,2)
// Graph::HasEdge probes per enumerated subgraph.
std::vector<int64_t> CountGraphletsByEdgeProbes(const Graph& g, int k) {
  const GraphletClassifier& classifier = GraphletClassifier::ForSize(k);
  std::vector<int64_t> counts(GraphletCatalog::ForSize(k).NumTypes(), 0);
  ForEachConnectedSubgraph(g, k, [&](std::span<const VertexId> nodes) {
    uint32_t mask = 0;
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        if (g.HasEdge(nodes[i], nodes[j])) mask = MaskWithEdge(mask, k, i, j);
      }
    }
    counts[classifier.Type(mask)]++;
  });
  return counts;
}

TEST(EsuTest, CountsMatchEdgeProbeOracle) {
  // A Holme-Kim graph with a degree-100 hub for k <= 5. At k = 6 that hub
  // alone spans C(100, 5) = 75M subgraphs, too many for a unit test, so
  // k = 6 runs on a smaller graph from the same family.
  Rng big_rng(1);
  const Graph hub = LargestConnectedComponent(HolmeKim(800, 2, 0.5, big_rng));
  VertexId max_degree = 0;
  for (VertexId v = 0; v < hub.NumNodes(); ++v) {
    max_degree = std::max<VertexId>(max_degree, hub.Degree(v));
  }
  ASSERT_GE(max_degree, 100u);
  Rng small_rng(1);
  const Graph small =
      LargestConnectedComponent(HolmeKim(150, 2, 0.5, small_rng));
  for (int k = 3; k <= 6; ++k) {
    const Graph& g = k <= 5 ? hub : small;
    EXPECT_EQ(CountGraphletsEsu(g, k), CountGraphletsByEdgeProbes(g, k))
        << "k=" << k;
  }
}

TEST(FourCountTest, MatchesEsuOnRandomGraphs) {
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph raw = trial % 2 == 0
                          ? ErdosRenyi(60, 180 + 10 * trial, rng)
                          : HolmeKim(60, 3, 0.5, rng);
    const Graph g = LargestConnectedComponent(raw);
    const auto formula = CountFourNodeGraphlets(g);
    const auto esu = CountGraphletsEsu(g, 4);
    ASSERT_EQ(formula.size(), esu.size());
    for (size_t id = 0; id < esu.size(); ++id) {
      EXPECT_EQ(formula[id], esu[id]) << "trial=" << trial << " id=" << id;
    }
  }
}

TEST(FourCountTest, NonInducedMatchesEmbeddingMatrixTimesInduced) {
  Rng rng(29);
  const Graph g = LargestConnectedComponent(HolmeKim(80, 4, 0.5, rng));
  const auto non_induced = CountFourNodeNonInduced(g);
  const auto induced = CountGraphletsEsu(g, 4);
  std::vector<double> induced_d(induced.begin(), induced.end());
  const auto reconstructed = NonInducedFromInduced(4, induced_d);
  for (size_t id = 0; id < non_induced.size(); ++id) {
    EXPECT_DOUBLE_EQ(static_cast<double>(non_induced[id]),
                     reconstructed[id])
        << "id=" << id;
  }
}

TEST(ExactFacadeTest, ThreeNodeCountsOnFixtures) {
  const GraphletCatalog& c3 = GraphletCatalog::ForSize(3);
  // The paper's running example (Figure 1): 4 nodes, edges
  // {1-2, 1-3, 1-4, 2-3, 3-4} — two triangles, two wedges,
  // concentrations 0.5 / 0.5 (Section 2.1 example).
  const Graph g =
      FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}});
  const auto counts = ExactGraphletCounts(g, 3);
  EXPECT_EQ(counts[c3.IdByName("wedge")], 2);
  EXPECT_EQ(counts[c3.IdByName("triangle")], 2);
  const auto conc = ExactConcentrations(g, 3);
  EXPECT_DOUBLE_EQ(conc[0], 0.5);
  EXPECT_DOUBLE_EQ(conc[1], 0.5);
}

TEST(ExactFacadeTest, ThreeNodeMatchesEsu) {
  Rng rng(31);
  const Graph g = LargestConnectedComponent(ErdosRenyi(80, 240, rng));
  const auto formula = ExactGraphletCounts(g, 3);
  const auto esu = CountGraphletsEsu(g, 3);
  EXPECT_EQ(formula, esu);
}

TEST(ExactFacadeTest, FiveNodeCliqueFixture) {
  // K6 contains C(6,5) = 6 five-cliques and nothing else at k = 5.
  const auto counts = ExactGraphletCounts(Complete(6), 5);
  const GraphletCatalog& c5 = GraphletCatalog::ForSize(5);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 6);
  EXPECT_EQ(counts[c5.NumTypes() - 1], 6);  // densest catalog id = clique
}

TEST(ClusteringTest, GlobalClusteringCoefficient) {
  // Triangle: 1.0. Star: 0. Paper Section 2.1: cc = 3*c32/(2*c32 + 1).
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(Complete(3)), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(Star(10)), 0.0);
  Rng rng(37);
  const Graph g = LargestConnectedComponent(HolmeKim(200, 4, 0.6, rng));
  const auto conc = ExactConcentrations(g, 3);
  const GraphletCatalog& c3 = GraphletCatalog::ForSize(3);
  const double c32 = conc[c3.IdByName("triangle")];
  EXPECT_NEAR(GlobalClusteringCoefficient(g), 3 * c32 / (2 * c32 + 1),
              1e-12);
}

}  // namespace
}  // namespace grw
