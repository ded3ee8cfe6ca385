// Tests for the incremental sample window (paper Section 5).

#include "core/sample_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "graph/access.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

TEST(SampleWindowTest, NodeWalkWindowTracksUnionAndValidity) {
  // Path 0-1-2-3: window of 3 single-node states.
  const Graph g = Path(4);
  SampleWindow window(g, /*k=*/3, /*l=*/3);
  const std::array<VertexId, 1> s0 = {0};
  const std::array<VertexId, 1> s1 = {1};
  const std::array<VertexId, 1> s2 = {2};
  window.Push(s0, 1);
  EXPECT_FALSE(window.Full());
  window.Push(s1, 2);
  window.Push(s2, 2);
  EXPECT_TRUE(window.Full());
  ASSERT_TRUE(window.Valid());
  // Union order = first appearance; mask = path 0-1-2 (edges (0,1),(1,2)).
  const auto nodes = window.UnionNodes();
  EXPECT_EQ(nodes[0], 0u);
  EXPECT_EQ(nodes[1], 1u);
  EXPECT_EQ(nodes[2], 2u);
  EXPECT_EQ(window.Mask(), MaskFromEdges(3, {{0, 1}, {1, 2}}));
  EXPECT_EQ(window.Mask(), window.MaskNaive());
}

TEST(SampleWindowTest, BacktrackingWindowIsInvalid) {
  // Walk 0 -> 1 -> 0 covers only 2 distinct nodes ("invalid sample",
  // paper Figure 3).
  const Graph g = Path(4);
  SampleWindow window(g, 3, 3);
  const std::array<VertexId, 1> a = {0};
  const std::array<VertexId, 1> b = {1};
  window.Push(a, 1);
  window.Push(b, 2);
  window.Push(a, 1);
  EXPECT_TRUE(window.Full());
  EXPECT_FALSE(window.Valid());
}

TEST(SampleWindowTest, SlidingEvictsAndRevalidates) {
  const Graph g = Path(5);
  SampleWindow window(g, 3, 3);
  const std::array<VertexId, 1> n0 = {0};
  const std::array<VertexId, 1> n1 = {1};
  const std::array<VertexId, 1> n2 = {2};
  const std::array<VertexId, 1> n3 = {3};
  window.Push(n0, 1);
  window.Push(n1, 2);
  window.Push(n0, 1);  // backtrack: invalid
  EXPECT_FALSE(window.Valid());
  window.Push(n1, 2);  // window now 0,1... wait: states 0,1,0 -> 1,0,1
  EXPECT_FALSE(window.Valid());
  window.Push(n2, 2);  // 0,1,2
  EXPECT_TRUE(window.Valid());
  window.Push(n3, 2);  // 1,2,3
  ASSERT_TRUE(window.Valid());
  const auto nodes = window.UnionNodes();
  EXPECT_EQ(nodes[0], 1u);
  EXPECT_EQ(nodes[1], 2u);
  EXPECT_EQ(nodes[2], 3u);
}

TEST(SampleWindowTest, StateDegreesAreRetrievable) {
  const Graph g = Path(5);
  SampleWindow window(g, 3, 3);
  const std::array<VertexId, 1> n0 = {0};
  const std::array<VertexId, 1> n1 = {1};
  const std::array<VertexId, 1> n2 = {2};
  window.Push(n0, 0);
  window.SetNewestDegree(1);
  window.Push(n1, 0);
  window.SetNewestDegree(2);
  window.Push(n2, 0);
  window.SetNewestDegree(2);
  EXPECT_EQ(window.State(0).degree, 1u);
  EXPECT_EQ(window.State(1).degree, 2u);
  EXPECT_EQ(window.State(2).degree, 2u);
}

TEST(SampleWindowTest, EdgeStatesShareNodesCorrectly) {
  // Triangle 0-1-2 plus pendant 3 on node 2; edge-walk window (k=4, l=3).
  const Graph g = FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  SampleWindow window(g, 4, 3);
  const std::array<VertexId, 2> e01 = {0, 1};
  const std::array<VertexId, 2> e12 = {1, 2};
  const std::array<VertexId, 2> e23 = {2, 3};
  window.Push(e01, 0);
  window.Push(e12, 0);
  window.Push(e23, 0);
  ASSERT_TRUE(window.Valid());
  // Union in first-appearance order: 0,1,2,3. Induced = tailed triangle.
  EXPECT_EQ(window.Mask(),
            MaskFromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}));
  EXPECT_EQ(window.Mask(), window.MaskNaive());
}

TEST(SampleWindowTest, IncrementalMatchesNaiveUnderRandomWalks) {
  // Property sweep: run real walks and assert the incremental adjacency
  // equals the naive recomputation at every valid window.
  Rng rng(123);
  const Graph g = LargestConnectedComponent(HolmeKim(200, 4, 0.5, rng));
  {
    NodeWalk walk(g);
    walk.Reset(rng);
    SampleWindow window(g, 4, 4);
    for (int s = 0; s < 20000; ++s) {
      walk.Step(rng);
      window.Push(walk.Nodes(), 0);
      if (window.Valid()) {
        EXPECT_EQ(window.Mask(), window.MaskNaive());
      }
    }
  }
  {
    EdgeWalk walk(g);
    walk.Reset(rng);
    SampleWindow window(g, 5, 4);
    for (int s = 0; s < 20000; ++s) {
      walk.Step(rng);
      window.Push(walk.Nodes(), 0);
      if (window.Valid()) {
        EXPECT_EQ(window.Mask(), window.MaskNaive());
      }
    }
  }
}

// Walks `walk` for `steps` steps, pushing every state with the walk's
// known adjacency into a window that reads through an unbounded crawl
// over g, where fetches + cache_hits counts the window's HasEdge calls.
// Checks that each push probes at most the pairs the hint leaves unknown
// (registry - 1 - known per entering vertex), that the hint knows what
// each walk promises (walk/walker.h), and that every valid window's mask
// equals the naive recomputation. Adds the probes the hint saved to
// *saved.
void CheckKnownAdjacencyWindow(const Graph& g, StateWalker& walk, int k,
                               int steps, Rng& rng, uint64_t* saved) {
  walk.Reset(rng);
  const int d = static_cast<int>(walk.Nodes().size());
  const int l = k - d + 1;
  const int known_per_entry = d == 1 ? 1 : d - 1;
  const CrawlAccess crawl(g, CrawlOptions{});
  SampleWindowT<CrawlAccess> window(crawl, k, l);
  std::deque<std::vector<VertexId>> retained;  // the last l-1 states
  for (int s = 0; s <= steps; ++s) {
    if (s > 0) walk.Step(rng);
    const std::span<const VertexId> nodes = walk.Nodes();
    const KnownAdjacency known = walk.Known();
    std::vector<VertexId> entering;
    for (const VertexId v : nodes) {
      const bool held = std::any_of(
          retained.begin(), retained.end(), [v](const auto& state) {
            return std::find(state.begin(), state.end(), v) != state.end();
          });
      if (!held) entering.push_back(v);
    }
    const auto probes_before = [&crawl] {
      return crawl.stats().fetches + crawl.stats().cache_hits;
    };
    const uint64_t before = probes_before();
    window.Push(nodes, 0, known);
    const uint64_t probes = probes_before() - before;

    const std::span<const VertexId> registry = window.UnionNodes();
    uint64_t bound = 0;
    for (const VertexId v : entering) {
      const auto idx = static_cast<uint64_t>(
          std::find(registry.begin(), registry.end(), v) - registry.begin());
      ASSERT_LT(idx, registry.size());
      uint64_t known_pairs = 0;
      for (uint64_t i = 0; i < idx; ++i) {
        known_pairs += known.Find(v) >= 0 && known.Find(registry[i]) >= 0;
      }
      if (s > 0 && d <= 3) {
        EXPECT_EQ(known_pairs, static_cast<uint64_t>(known_per_entry));
      }
      bound += idx - known_pairs;
      *saved += known_pairs;
    }
    EXPECT_LE(probes, bound) << "step " << s;
    if (window.Valid()) {
      EXPECT_EQ(window.Mask(), window.MaskNaive()) << "step " << s;
    }
    retained.emplace_back(nodes.begin(), nodes.end());
    if (static_cast<int>(retained.size()) > l - 1) retained.pop_front();
  }
}

TEST(SampleWindowTest, KnownAdjacencySkipsProbesAndKeepsTheMask) {
  Rng rng(321);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 3, 0.5, rng));
  for (const bool nb : {false, true}) {
    SCOPED_TRACE(nb ? "non-backtracking" : "simple");
    struct Case {
      std::unique_ptr<StateWalker> walk;
      int d;
      int k;
    };
    Case cases[] = {
        {std::make_unique<NodeWalk>(g, nb), 1, 3},
        {std::make_unique<EdgeWalk>(g, nb), 2, 4},
        {std::make_unique<EdgeWalk>(g, nb), 2, 5},
        {std::make_unique<SubgraphWalk>(g, 3, nb), 3, 4},
    };
    for (Case& c : cases) {
      SCOPED_TRACE(::testing::Message() << "d=" << c.d << " k=" << c.k);
      uint64_t saved = 0;
      CheckKnownAdjacencyWindow(g, *c.walk, c.k, 5000, rng, &saved);
      EXPECT_GT(saved, 0u);
    }
  }
}

TEST(SampleWindowTest, ClearResetsEverything) {
  const Graph g = Path(5);
  SampleWindow window(g, 3, 3);
  const std::array<VertexId, 1> n0 = {0};
  const std::array<VertexId, 1> n1 = {1};
  const std::array<VertexId, 1> n2 = {2};
  window.Push(n0, 1);
  window.Push(n1, 2);
  window.Push(n2, 2);
  EXPECT_TRUE(window.Valid());
  window.Clear();
  EXPECT_FALSE(window.Full());
  EXPECT_EQ(window.UnionNodes().size(), 0u);
}

}  // namespace
}  // namespace grw
