// Tests for the CSR graph, builder pipeline, and LCC extraction.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace grw {
namespace {

TEST(GraphTest, BasicTriangleProperties) {
  const Graph g = FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_EQ(g.MaxDegree(), 2u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, NeighborsSortedAndDeduped) {
  const Graph g = FromEdges(4, {{2, 0}, {0, 2}, {0, 1}, {3, 0}, {0, 3}});
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(GraphTest, BuilderDropsSelfLoopsAndRelabelsSparseIds) {
  GraphBuilder builder;
  builder.AddEdge(100, 200);
  builder.AddEdge(200, 100);  // duplicate (reversed)
  builder.AddEdge(100, 100);  // self-loop
  builder.AddEdge(200, 900);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  // Relabeling is by sorted original id: 100->0, 200->1, 900->2.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, WedgeCountMatchesDefinition) {
  // Star S4: center degree 4 -> C(4,2) = 6 wedges.
  EXPECT_EQ(Star(5).WedgeCount(), 6u);
  // Triangle: 3 wedges.
  EXPECT_EQ(Complete(3).WedgeCount(), 3u);
  // Path P4: two internal nodes of degree 2 -> 2 wedges.
  EXPECT_EQ(Path(4).WedgeCount(), 2u);
}

TEST(GraphTest, LargestConnectedComponentPicksBiggest) {
  // Two components: a triangle and a 5-path.
  const Graph g = FromEdges(
      8, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  const Graph lcc = LargestConnectedComponent(g);
  EXPECT_EQ(lcc.NumNodes(), 5u);
  EXPECT_EQ(lcc.NumEdges(), 4u);
  EXPECT_TRUE(lcc.IsConnected());
}

TEST(GraphTest, LccOfConnectedGraphIsIdentityShaped) {
  Rng rng(7);
  const Graph g = ErdosRenyi(200, 800, rng);
  const Graph lcc = LargestConnectedComponent(g);
  EXPECT_LE(lcc.NumNodes(), g.NumNodes());
  EXPECT_TRUE(lcc.IsConnected());
}

TEST(GraphTest, DegreeSquareSum) {
  const Graph g = Star(4);  // degrees 3,1,1,1
  EXPECT_EQ(g.DegreeSquareSum(), 9u + 1 + 1 + 1);
}

TEST(GraphTest, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, SummaryFormat) {
  EXPECT_EQ(Complete(4).Summary(), "n=4 m=6 dmax=3");
}

TEST(GraphTest, SortedContainsMatchesBinarySearch) {
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  const std::vector<VertexId> empty;
  EXPECT_FALSE(SortedContains(empty, 0));
  EXPECT_FALSE(SortedContains(empty, kMax));
  Rng rng(41);
  std::vector<VertexId> list;
  std::vector<VertexId> queries;
  for (size_t n = 1; n <= 600; ++n) {
    SCOPED_TRACE(n);
    // Gaps of at least 2 leave an absent id between every pair. Odd
    // sizes start at id 0, even ones end at the largest id.
    list.assign(n, 0);
    list[0] = n % 2 == 1 ? 0 : 1 + static_cast<VertexId>(rng.UniformInt(5));
    for (size_t i = 1; i < n; ++i) {
      list[i] = list[i - 1] + 2 + static_cast<VertexId>(rng.UniformInt(1000));
    }
    if (n % 2 == 0) list[n - 1] = kMax;
    queries.assign(list.begin(), list.end());  // every present position
    queries.push_back(0);
    queries.push_back(kMax);
    if (list.front() > 0) queries.push_back(list.front() - 1);  // below
    for (size_t i = 0; i + 1 < n; ++i) queries.push_back(list[i] + 1);
    if (list.back() < kMax) queries.push_back(list.back() + 1);  // above
    for (const VertexId v : queries) {
      EXPECT_EQ(SortedContains(list, v),
                std::binary_search(list.begin(), list.end(), v))
          << "id " << v;
    }
  }
}

}  // namespace
}  // namespace grw
