// Tests for the random-walk substrate: stationary distributions, neighbor
// enumeration on G(d), and non-backtracking behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

// Chi-square-ish check: empirical visit frequency vs expected stationary
// probability within rel_tol.
void ExpectStationary(const std::map<std::vector<VertexId>, uint64_t>& visits,
                      const std::map<std::vector<VertexId>, double>& expected,
                      uint64_t total, double rel_tol) {
  for (const auto& [state, pi] : expected) {
    const auto it = visits.find(state);
    const double freq =
        it == visits.end()
            ? 0.0
            : static_cast<double>(it->second) / static_cast<double>(total);
    EXPECT_NEAR(freq, pi, rel_tol * pi + 0.003)
        << "state size " << state.size();
  }
}

TEST(NodeWalkTest, StationaryDistributionIsDegreeProportional) {
  // pi(v) = d_v / 2|E| (paper Section 2.2).
  const Graph g = KarateClub();
  NodeWalk walk(g);
  Rng rng(100);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  const uint64_t steps = 400000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    visits[{walk.Current()}]++;
  }
  std::map<std::vector<VertexId>, double> expected;
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    expected[{v}] = static_cast<double>(g.Degree(v)) /
                    static_cast<double>(2 * g.NumEdges());
  }
  ExpectStationary(visits, expected, steps, 0.10);
}

TEST(NodeWalkTest, NonBacktrackingPreservesStationaryDistribution) {
  // Paper Section 4.2: NB-SRW has the same stationary distribution.
  const Graph g = KarateClub();
  NodeWalk walk(g, /*non_backtracking=*/true);
  Rng rng(101);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  const uint64_t steps = 400000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    visits[{walk.Current()}]++;
  }
  std::map<std::vector<VertexId>, double> expected;
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    expected[{v}] = static_cast<double>(g.Degree(v)) /
                    static_cast<double>(2 * g.NumEdges());
  }
  ExpectStationary(visits, expected, steps, 0.10);
}

TEST(NodeWalkTest, NonBacktrackingNeverBacktracksUnlessForced) {
  // On a star, every move from a leaf *must* return to the hub; from the
  // hub (degree > 1 with NB) the walk must not return to the previous
  // leaf.
  const Graph g = Star(6);
  NodeWalk walk(g, true);
  Rng rng(7);
  walk.Reset(rng);
  VertexId prev = walk.Current();
  walk.Step(rng);
  for (int s = 0; s < 2000; ++s) {
    const VertexId here = walk.Current();
    walk.Step(rng);
    const VertexId next = walk.Current();
    if (here == 0) {
      EXPECT_NE(next, prev) << "hub must avoid backtracking";
    } else {
      EXPECT_EQ(next, 0u) << "leaf has one neighbor";
    }
    prev = here;
  }
}

TEST(EdgeWalkTest, StationaryDistributionIsUniformOverEdges) {
  // States of G(2) have pi(e) = d_e / 2|R(2)|... but the walk itself is a
  // simple random walk whose stationary distribution is degree-
  // proportional in G(2): deg(e_uv) = d_u + d_v - 2.
  const Graph g = KarateClub();
  EdgeWalk walk(g);
  Rng rng(55);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  const uint64_t steps = 600000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    const auto nodes = walk.Nodes();
    visits[{nodes[0], nodes[1]}]++;
  }
  const double two_r2 = 2.0 * static_cast<double>(g.WedgeCount());
  std::map<std::vector<VertexId>, double> expected;
  for (VertexId u = 0; u < g.NumNodes(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) {
        expected[{u, v}] =
            static_cast<double>(g.Degree(u) + g.Degree(v) - 2) / two_r2;
      }
    }
  }
  ExpectStationary(visits, expected, steps, 0.12);
}

TEST(EdgeWalkTest, StateDegreeClosedForm) {
  const Graph g = KarateClub();
  EdgeWalk walk(g);
  Rng rng(1);
  walk.Reset(rng);
  for (int s = 0; s < 500; ++s) {
    const auto nodes = walk.Nodes();
    EXPECT_EQ(walk.StateDegree(),
              static_cast<uint64_t>(g.Degree(nodes[0])) +
                  g.Degree(nodes[1]) - 2);
    EXPECT_TRUE(g.HasEdge(nodes[0], nodes[1]))
        << "state must always be an edge";
    walk.Step(rng);
  }
}

TEST(SubgraphWalkTest, StatesAreConnectedInducedSubgraphs) {
  Rng rng(9);
  const Graph g = LargestConnectedComponent(HolmeKim(120, 3, 0.5, rng));
  for (int d = 3; d <= 4; ++d) {
    SubgraphWalk walk(g, d);
    walk.Reset(rng);
    for (int s = 0; s < 300; ++s) {
      const auto nodes = walk.Nodes();
      ASSERT_EQ(static_cast<int>(nodes.size()), d);
      std::vector<VertexId> sorted(nodes.begin(), nodes.end());
      EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
      EXPECT_TRUE(InducedSubgraphConnected(g, sorted));
      walk.Step(rng);
    }
  }
}

TEST(SubgraphWalkTest, ConsecutiveStatesShareDMinusOneNodes) {
  Rng rng(15);
  const Graph g = LargestConnectedComponent(HolmeKim(100, 3, 0.4, rng));
  SubgraphWalk walk(g, 3);
  walk.Reset(rng);
  std::vector<VertexId> prev(walk.Nodes().begin(), walk.Nodes().end());
  for (int s = 0; s < 300; ++s) {
    walk.Step(rng);
    std::vector<VertexId> cur(walk.Nodes().begin(), walk.Nodes().end());
    std::vector<VertexId> shared;
    std::set_intersection(prev.begin(), prev.end(), cur.begin(), cur.end(),
                          std::back_inserter(shared));
    EXPECT_EQ(shared.size(), 2u);
    prev = std::move(cur);
  }
}

TEST(SubgraphWalkTest, NeighborEnumerationMatchesDefinitionOnFixture) {
  // Path 0-1-2-3-4: connected 3-sets are {0,1,2},{1,2,3},{2,3,4};
  // {0,1,2} and {1,2,3} share 2 nodes -> adjacent; {0,1,2} vs {2,3,4}
  // share 1 -> not adjacent.
  const Graph g = Path(5);
  std::vector<VertexId> out;
  const std::vector<VertexId> state = {0, 1, 2};
  EnumerateGdNeighbors(g, state, &out);
  ASSERT_EQ(out.size(), 3u);  // exactly one neighbor
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 3u);
  EXPECT_EQ(SubgraphStateDegree(g, state), 1u);

  // Middle state has two neighbors.
  const std::vector<VertexId> mid = {1, 2, 3};
  EXPECT_EQ(SubgraphStateDegree(g, mid), 2u);
}

TEST(SubgraphWalkTest, StateDegreeOnClique) {
  // In K5, a 3-subset's neighbors: drop any of 3 nodes, add either of the
  // 2 outside nodes -> 6 neighbors.
  const Graph g = Complete(5);
  const std::vector<VertexId> state = {0, 1, 2};
  EXPECT_EQ(SubgraphStateDegree(g, state), 6u);
}

TEST(SubgraphWalkTest, StationaryDistributionOnSmallGraph) {
  // Empirical check of pi(s) = deg(s) / 2|R(3)| on a small fixture.
  const Graph g = Lollipop(4, 2);
  SubgraphWalk walk(g, 3);
  Rng rng(77);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  std::map<std::vector<VertexId>, double> expected;
  const uint64_t steps = 200000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    visits[std::vector<VertexId>(walk.Nodes().begin(),
                                 walk.Nodes().end())]++;
  }
  // Enumerate all connected 3-subgraphs and their degrees.
  double degree_sum = 0.0;
  std::vector<std::pair<std::vector<VertexId>, double>> states;
  for (VertexId a = 0; a < g.NumNodes(); ++a) {
    for (VertexId b = a + 1; b < g.NumNodes(); ++b) {
      for (VertexId c = b + 1; c < g.NumNodes(); ++c) {
        const std::vector<VertexId> nodes = {a, b, c};
        if (!InducedSubgraphConnected(g, nodes)) continue;
        const double deg =
            static_cast<double>(SubgraphStateDegree(g, nodes));
        states.emplace_back(nodes, deg);
        degree_sum += deg;
      }
    }
  }
  for (const auto& [nodes, deg] : states) expected[nodes] = deg / degree_sum;
  ExpectStationary(visits, expected, steps, 0.12);
}

// Walks PSRW at d = 3 for `steps` states and checks the closed-form
// degree (walk and free function) against the written-out neighbor list
// at every state, and that each move lands on a listed neighbor (not the
// previous state under NB, unless it is the only one). Returns how many
// visited states held a pair of vertices whose degrees differ more than
// 16x.
int ExpectG3DegreesMatchEnumeration(const Graph& g, bool nb, uint64_t seed,
                                    int steps) {
  SubgraphWalk walk(g, 3, nb);
  Rng rng(seed);
  walk.Reset(rng);
  std::vector<VertexId> neighbors;
  std::vector<VertexId> prev;
  int skewed = 0;
  for (int s = 0; s < steps; ++s) {
    const std::vector<VertexId> state(walk.Nodes().begin(),
                                      walk.Nodes().end());
    neighbors.clear();
    EnumerateGdNeighbors(g, state, &neighbors);
    const uint64_t count = neighbors.size() / 3;
    EXPECT_EQ(SubgraphStateDegree(g, state), count) << "step " << s;
    EXPECT_EQ(walk.StateDegree(), count) << "step " << s;

    uint32_t lo = g.Degree(state[0]);
    uint32_t hi = lo;
    for (const VertexId v : state) {
      lo = std::min(lo, g.Degree(v));
      hi = std::max(hi, g.Degree(v));
    }
    skewed += hi > 16 * lo;

    walk.Step(rng);
    const std::vector<VertexId> next(walk.Nodes().begin(),
                                     walk.Nodes().end());
    bool listed = false;
    for (uint64_t i = 0; i < count; ++i) {
      listed |= std::equal(next.begin(), next.end(),
                           neighbors.begin() + 3 * i);
    }
    if (!listed || (nb && count >= 2 && next == prev)) {
      ADD_FAILURE() << "step " << s << " left the listed neighbors";
      return skewed;
    }
    prev = state;
  }
  return skewed;
}

TEST(SubgraphWalkTest, ClosedFormG3MatchesEnumerationOnHubGraph) {
  // Holme-Kim hubs next to degree-3 vertices: the merges meet lists of
  // very different lengths, and the walk visits both triangles and paths.
  Rng rng(2718);
  const Graph g = LargestConnectedComponent(HolmeKim(3000, 3, 0.5, rng));
  ASSERT_GT(g.MaxDegree(), 16u * 3u);
  for (const bool nb : {false, true}) {
    SCOPED_TRACE(nb ? "NB" : "plain");
    const int steps = 20000;
    const int skewed =
        ExpectG3DegreesMatchEnumeration(g, nb, 31 + nb, steps);
    EXPECT_GT(skewed, steps / 10) << "too few hub states visited";
  }
}

TEST(SubgraphWalkTest, ClosedFormG3OnHandBuiltStates) {
  // Triangle 0-1-2 with 1-3, 1-4, 2-4 and 3-5:
  //   5 - 3 - 1 - 0
  //           | \ |
  //           4 - 2
  const Graph g = FromEdges(
      6, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4}, {2, 4}, {3, 5}});
  struct Case {
    std::vector<VertexId> state;
    std::vector<VertexId> neighbors;  // flattened, enumeration order
  };
  const std::vector<Case> cases = {
      // Triangle: every kept pair is an edge; drop 0 -> {3, 4}, drop 1
      // -> {4}, drop 2 -> {3, 4}.
      {{0, 1, 2}, {1, 2, 3, 1, 2, 4, 0, 2, 4, 0, 1, 3, 0, 1, 4}},
      // Path 1-3-5. Dropping 1 keeps the edge 3-5, whose lists hold only
      // the state. Dropping the middle 3 keeps 1 !~ 5, whose only common
      // neighbor is 3 itself: both per-z counts are 0.
      {{1, 3, 5}, {0, 1, 3, 1, 2, 3, 1, 3, 4}},
      // Path 0-2-4: dropping the middle 2 keeps 0 !~ 4 with common
      // neighbors {1, 2}; only 1 is outside the state.
      {{0, 2, 4}, {1, 2, 4, 0, 1, 4, 0, 1, 2}},
  };
  for (const Case& c : cases) {
    std::vector<VertexId> out;
    EnumerateGdNeighbors(g, c.state, &out);
    EXPECT_EQ(out, c.neighbors) << "state " << c.state[0] << c.state[1]
                                << c.state[2];
    EXPECT_EQ(SubgraphStateDegree(g, c.state), c.neighbors.size() / 3);
  }
  // Every state of this graph, the zero-count ones included, is reached
  // and left for a listed neighbor.
  ExpectG3DegreesMatchEnumeration(g, /*nb=*/false, 5, 2000);
  ExpectG3DegreesMatchEnumeration(g, /*nb=*/true, 6, 2000);
}

// n distinct ids from [lo, lo + range), ascending, in a vector of exactly
// n elements: a read past the end is a read past the allocation, which
// the sanitizer build reports.
std::vector<VertexId> RandomSortedIds(Rng& rng, size_t n, uint64_t lo,
                                      uint64_t range) {
  std::set<VertexId> ids;
  while (ids.size() < n) {
    ids.insert(static_cast<VertexId>(lo + rng.UniformInt(range)));
  }
  return std::vector<VertexId>(ids.begin(), ids.end());
}

void ExpectKernelMatches(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b) {
  std::vector<VertexId> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  EXPECT_EQ(SortedIntersectionSize(a, b), both.size())
      << "|a| " << a.size() << " |b| " << b.size();
  EXPECT_EQ(SortedIntersectionSize(b, a), both.size())
      << "|a| " << b.size() << " |b| " << a.size();
}

TEST(SubgraphWalkTest, IntersectionKernelMatchesSetIntersection) {
  Rng rng(4242);
  constexpr uint64_t kTop = std::numeric_limits<VertexId>::max();
  // Every length pair, block multiples of 4 or not, from a range the
  // longer list half fills, so about half of the shorter list's ids are
  // shared; once at the bottom of the id space and once with kTop itself
  // in range.
  for (size_t na = 0; na <= 67; ++na) {
    for (size_t nb = 0; nb <= 67; ++nb) {
      const uint64_t range = 2 * std::max(na, nb) + 4;
      ExpectKernelMatches(RandomSortedIds(rng, na, 0, range),
                          RandomSortedIds(rng, nb, 0, range));
      ExpectKernelMatches(RandomSortedIds(rng, na, kTop - range + 1, range),
                          RandomSortedIds(rng, nb, kTop - range + 1, range));
    }
  }
  // Either side of the skew threshold: 8n - 1 and 8n ids take the block
  // compare against n, 8n + 1 the skip-scan. The long list covers most
  // of the range, so most short-list ids match.
  for (size_t n = 1; n <= 40; ++n) {
    for (const size_t m : {8 * n - 1, 8 * n, 8 * n + 1}) {
      const uint64_t range = m + m / 4 + 1;
      const std::vector<VertexId> longer = RandomSortedIds(rng, m, 0, range);
      ExpectKernelMatches(RandomSortedIds(rng, n, 0, range), longer);
      // Short ids drawn from the long list itself: every one matches.
      std::vector<VertexId> subset(n);
      std::sample(longer.begin(), longer.end(), subset.begin(), n, rng);
      ExpectKernelMatches(subset, longer);
    }
  }
  for (size_t n = 0; n <= 67; ++n) {
    // Identical lists.
    const std::vector<VertexId> same = RandomSortedIds(rng, n, 0, 3 * n + 1);
    ExpectKernelMatches(same, std::vector<VertexId>(same));
    // Interleaved and disjoint: evens against odds.
    std::vector<VertexId> evens(n);
    std::vector<VertexId> odds(n);
    for (size_t i = 0; i < n; ++i) {
      evens[i] = static_cast<VertexId>(2 * i);
      odds[i] = static_cast<VertexId>(2 * i + 1);
    }
    ExpectKernelMatches(evens, odds);
    // One list entirely below the other, the upper one ending at kTop.
    std::vector<VertexId> high(n + 5);
    for (size_t i = 0; i < high.size(); ++i) {
      high[i] = static_cast<VertexId>(kTop - high.size() + 1 + i);
    }
    ExpectKernelMatches(evens, high);
    ExpectKernelMatches(odds, high);
  }
  // Every mask of matched lanes the 4x4 block compare can produce. b
  // keeps a's id in the lanes of `mask` and the next id up in the others;
  // then the same matches move to the top of b, the lanes below them
  // filled with ids under all of a's.
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::vector<VertexId> a;
    std::vector<VertexId> aligned;
    std::vector<VertexId> matched;
    for (unsigned lane = 0; lane < 4; ++lane) {
      const VertexId id = 10 * (lane + 1);
      const bool match = (mask >> lane & 1u) != 0;
      a.push_back(id);
      aligned.push_back(match ? id : id + 1);
      if (match) matched.push_back(id);
    }
    std::vector<VertexId> shifted;
    for (VertexId filler = 1; shifted.size() + matched.size() < 4; ++filler) {
      shifted.push_back(filler);
    }
    shifted.insert(shifted.end(), matched.begin(), matched.end());
    SCOPED_TRACE(mask);
    ExpectKernelMatches(a, aligned);
    ExpectKernelMatches(a, shifted);
  }
}

TEST(SubgraphWalkTest, CachedStateDegreeNeverGoesStale) {
  // A walk counts its state's degree once and caches it until the state
  // changes. At every state that degree must equal a fresh count: after
  // plain and NB steps, after a Reset partway through, and in a walker
  // copied with a degree cached.
  Rng rng(1618);
  const Graph g = LargestConnectedComponent(HolmeKim(3000, 3, 0.5, rng));
  const auto expect_fresh = [&g](const SubgraphWalk& walk, int s) {
    const std::vector<VertexId> state(walk.Nodes().begin(),
                                      walk.Nodes().end());
    EXPECT_EQ(walk.StateDegree(), SubgraphStateDegree(g, state))
        << "step " << s;
  };
  for (const bool nb : {false, true}) {
    SCOPED_TRACE(nb ? "NB" : "plain");
    SubgraphWalk walk(g, 3, nb);
    Rng walk_rng(77 + nb);
    walk.Reset(walk_rng);
    for (int s = 0; s < 6000; ++s) {
      if (s == 2000) walk.Reset(walk_rng);
      if (s == 4000) {
        expect_fresh(walk, s);  // caches the degree the copy takes along
        SubgraphWalk copy = walk;
        Rng copy_rng = walk_rng;
        for (int c = 0; c < 1000; ++c) {
          expect_fresh(copy, c);
          copy.Step(copy_rng);
        }
      }
      expect_fresh(walk, s);
      walk.Step(walk_rng);
    }
  }
}

TEST(WalkGuardsTest, TooSmallGraphsAreRejected) {
  const Graph tiny = FromEdges(2, {{0, 1}});
  EXPECT_THROW(EdgeWalk walk(tiny), std::invalid_argument);
  EXPECT_THROW(SubgraphWalk walk(tiny, 3), std::invalid_argument);
  EXPECT_THROW(SubgraphWalk walk(KarateClub(), 2), std::invalid_argument);
}

}  // namespace
}  // namespace grw
