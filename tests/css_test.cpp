// Tests for CSS weighting: compiled tables vs direct Algorithm-3
// evaluation (a test-local oracle), and the closed forms of paper Table 4.

#include "core/css.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/alpha.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graphlet/catalog.h"
#include "graphlet/classifier.h"
#include "util/rng.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

// Builds the MaskInfo for an explicit node tuple in a graph.
const MaskInfo& InfoFor(const Graph& g, std::span<const VertexId> nodes,
                        int k) {
  uint32_t mask = 0;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (g.HasEdge(nodes[i], nodes[j])) mask = MaskWithEdge(mask, k, i, j);
    }
  }
  return GraphletClassifier::ForSize(k).Info(mask);
}

// G(d) degree of a sorted state: the closed forms at d = 1 and d = 2,
// SubgraphStateDegree at d >= 3.
uint64_t ClosedFormStateDegree(const Graph& g,
                               std::span<const VertexId> state) {
  if (state.size() == 1) return g.Degree(state[0]);
  if (state.size() == 2) {
    return static_cast<uint64_t>(g.Degree(state[0])) + g.Degree(state[1]) -
           2;
  }
  return SubgraphStateDegree(g, state);
}

// The oracle: Algorithm 3 as the paper states it. Enumerates every
// corresponding sequence of the sample's type and sums the product of its
// interior states' inverse (nominal) degrees, one sequence at a time.
double CssWeightDirect(int k, int d, const MaskInfo& info,
                       std::span<const VertexId> nodes, const Graph& g,
                       bool nb) {
  const Graphlet& graphlet = GraphletCatalog::ForSize(k).Get(info.type);
  const int l = k - d + 1;
  double total = 0.0;
  std::vector<VertexId> state_nodes;
  for (const StateSequence& seq : CorrespondingSequences(graphlet, d)) {
    double denom = 1.0;
    for (int t = 1; t + 1 < l; ++t) {
      state_nodes.clear();
      for (int c = 0; c < k; ++c) {
        if ((seq[t] >> c) & 1u) {
          state_nodes.push_back(nodes[info.position_of[c]]);
        }
      }
      std::sort(state_nodes.begin(), state_nodes.end());
      uint64_t deg = ClosedFormStateDegree(g, state_nodes);
      if (nb && deg > 1) deg -= 1;
      denom *= static_cast<double>(deg);
    }
    total += 1.0 / denom;
  }
  return total;
}

TEST(CssTest, TriangleClosedFormTable4Srw1) {
  // Paper Table 4: for g32 under SRW1, 2|R| * p / 2 = 1/d1 + 1/d2 + 1/d3.
  // Build a graph where a triangle's corners have distinct degrees.
  Rng rng(17);
  const Graph g = LargestConnectedComponent(HolmeKim(64, 3, 0.8, rng));
  const GraphletCatalog& c3 = GraphletCatalog::ForSize(3);
  const CssTable& table = CssTable::For(3, 1);
  GdScratch scratch;
  bool found = false;
  for (VertexId u = 0; u < g.NumNodes() && !found; ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (v <= u) continue;
      for (VertexId w : g.Neighbors(v)) {
        if (w <= v || !g.HasEdge(u, w)) continue;
        const std::array<VertexId, 3> nodes = {u, v, w};
        const MaskInfo& info = InfoFor(g, nodes, 3);
        ASSERT_EQ(info.type, c3.IdByName("triangle"));
        const double expected = 2.0 * (1.0 / g.Degree(u) +
                                       1.0 / g.Degree(v) +
                                       1.0 / g.Degree(w));
        EXPECT_NEAR(table.Eval(info, nodes, g, false, scratch), expected,
                    1e-12);
        found = true;
        break;
      }
      if (found) break;
    }
  }
  ASSERT_TRUE(found) << "test graph has no triangle";
}

TEST(CssTest, WedgeClosedFormTable4Srw1) {
  // Paper Table 4: for g31 under SRW1, 2|R| * p / 2 = 1/d2 (center node).
  const Graph g = Star(5);  // center 0 with degree 4, leaves degree 1
  const std::array<VertexId, 3> nodes = {1, 0, 2};  // wedge 1-0-2
  const MaskInfo& info = InfoFor(g, nodes, 3);
  const CssTable& table = CssTable::For(3, 1);
  GdScratch scratch;
  EXPECT_NEAR(table.Eval(info, nodes, g, false, scratch), 2.0 * (1.0 / 4.0),
              1e-12);
}

TEST(CssTest, FourCliqueClosedFormTable4Srw2) {
  // Paper Table 4: for g46 under SRW2, 2|R| * p / 2 = 4 * sum_e 1/d_e.
  const Graph g = Complete(5);  // all K4s inside K5; edge degree = 4+4-2
  const std::array<VertexId, 4> nodes = {0, 1, 2, 3};
  const MaskInfo& info = InfoFor(g, nodes, 4);
  const CssTable& table = CssTable::For(4, 2);
  const double de = 6.0;  // every edge state has degree 4 + 4 - 2 = 6
  GdScratch scratch;
  // Table 4 lists 2|R| p / 2 = 4 * sum over the 6 edges of 1/d_e.
  EXPECT_NEAR(table.Eval(info, nodes, g, false, scratch),
              2.0 * 4.0 * (6.0 / de), 1e-12);
}

TEST(CssTest, TableMatchesDirectEvaluationRandomSamples) {
  Rng rng(41);
  const Graph g = LargestConnectedComponent(HolmeKim(120, 4, 0.6, rng));
  GdScratch scratch;  // reused across samples: catches stale-state bugs
  // Sample random connected k-sets and compare the compiled table against
  // direct enumeration for every d < k.
  for (int k = 3; k <= kMaxGraphletSize; ++k) {
    for (int d = 1; d < k; ++d) {
      const CssTable& table = CssTable::For(k, d);
      int checked = 0;
      for (int attempt = 0; attempt < 400 && checked < 60; ++attempt) {
        // Random connected k-set: grow from a random node.
        std::vector<VertexId> nodes = {
            static_cast<VertexId>(rng.UniformInt(g.NumNodes()))};
        while (static_cast<int>(nodes.size()) < k) {
          const VertexId anchor = nodes[rng.UniformInt(nodes.size())];
          const VertexId w = g.Neighbor(
              anchor,
              static_cast<uint32_t>(rng.UniformInt(g.Degree(anchor))));
          if (std::find(nodes.begin(), nodes.end(), w) == nodes.end()) {
            nodes.push_back(w);
          }
        }
        const MaskInfo& info = InfoFor(g, nodes, k);
        ASSERT_GE(info.type, 0);
        for (const bool nb : {false, true}) {
          const double from_table = table.Eval(info, nodes, g, nb, scratch);
          const double direct = CssWeightDirect(k, d, info, nodes, g, nb);
          EXPECT_NEAR(from_table, direct, 1e-12 * direct)
              << "k=" << k << " d=" << d << " nb=" << nb;
        }
        ++checked;
      }
      EXPECT_GE(checked, 30) << "k=" << k << " d=" << d;
    }
  }
}

TEST(CssTest, EntryCountsSumToAlpha) {
  // Summing the group counts over all entries recovers alpha (every
  // corresponding sequence is in exactly one interior group).
  for (int k = 3; k <= kMaxGraphletSize; ++k) {
    for (int d = 1; d < k; ++d) {
      const CssTable& table = CssTable::For(k, d);
      const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
      for (int id = 0; id < catalog.NumTypes(); ++id) {
        int64_t total = 0;
        for (const CssEntry& entry : table.Entries(id)) {
          total += entry.count;
        }
        EXPECT_EQ(total, Alpha(catalog.Get(id), d))
            << "k=" << k << " d=" << d << " id=" << id;
      }
    }
  }
}

TEST(CssTest, PsrwDegenerateCaseEqualsAlpha) {
  // For l = 2 (d = k-1) there are no interior states: p equals alpha and
  // CSS coincides with the base estimator, matching the paper's footnote
  // that CSS requires l > 2. On a clique the sample is the k-clique.
  const Graph g = Complete(6);
  const std::array<VertexId, 5> nodes = {0, 1, 2, 3, 4};
  GdScratch scratch;
  for (int k = 3; k <= 5; ++k) {
    const std::span<const VertexId> sample(nodes.data(), k);
    const MaskInfo& info = InfoFor(g, sample, k);
    const CssTable& table = CssTable::For(k, k - 1);
    const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
    EXPECT_DOUBLE_EQ(table.Eval(info, sample, g, false, scratch),
                     static_cast<double>(Alpha(catalog.Get(info.type), k - 1)))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace grw
