// Statistical goodness-of-fit tests for the walk substrate.
//
// Structural tests (tests/walk_test.cpp) check stationary frequencies
// within loose tolerances; these tests make the claim *statistical*: a
// Pearson chi-square test of the empirical visit distribution against the
// degree-proportional stationary distribution (paper Section 2.2), and of
// the per-state transition distribution against uniform-over-neighbors —
// the random-walk testing idiom from the node2vec exemplar. All seeds are
// fixed, so the assertions are deterministic.
//
// Method notes: successive Markov-chain states are correlated, so for the
// stationary tests the chain is thinned (every kThin-th state) to make the
// multinomial sampling model reasonable; transitions *out of* a given
// state are i.i.d. uniform draws, so the transition tests need no
// thinning. Critical values use the Wilson-Hilferty approximation at
// z = 3.29 (upper tail ~5e-4) — fixed seeds keep this deterministic, the
// small alpha keeps it robust to residual correlation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/stats.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

constexpr double kTailZ = 3.29;  // upper-tail z for alpha ~ 5e-4
constexpr uint64_t kThin = 25;   // thinning stride for stationary tests

// Chi-square GOF of thinned NodeWalk visits vs pi(v) = d_v / 2|E|.
void CheckNodeStationary(const Graph& g, bool nb, uint64_t seed,
                         uint64_t samples) {
  NodeWalk walk(g, nb);
  Rng rng(seed);
  walk.Reset(rng);
  std::vector<double> observed(g.NumNodes(), 0.0);
  for (uint64_t s = 0; s < samples; ++s) {
    for (uint64_t t = 0; t < kThin; ++t) walk.Step(rng);
    observed[walk.Current()] += 1.0;
  }
  const double two_m = 2.0 * static_cast<double>(g.NumEdges());
  std::vector<double> expected(g.NumNodes(), 0.0);
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    expected[v] = static_cast<double>(g.Degree(v)) / two_m *
                  static_cast<double>(samples);
    ASSERT_GE(expected[v], 5.0) << "cell too thin for chi-square";
  }
  const double stat = ChiSquareStatistic(observed, expected);
  const int df = static_cast<int>(g.NumNodes()) - 1;
  EXPECT_LT(stat, ChiSquareCriticalValue(df, kTailZ))
      << "df=" << df << " nb=" << nb;
}

TEST(NodeWalkDistributionTest, StationaryChiSquareOnKarateClub) {
  CheckNodeStationary(KarateClub(), /*nb=*/false, /*seed=*/2001,
                      /*samples=*/20000);
}

TEST(NodeWalkDistributionTest, StationaryChiSquareOnLollipop) {
  CheckNodeStationary(Lollipop(5, 3), /*nb=*/false, /*seed=*/2002,
                      /*samples=*/15000);
}

TEST(NodeWalkDistributionTest, NonBacktrackingKeepsStationaryChiSquare) {
  // Paper Section 4.2: the NB walk has the same stationary distribution.
  CheckNodeStationary(KarateClub(), /*nb=*/true, /*seed=*/2003,
                      /*samples=*/20000);
}

TEST(NodeWalkDistributionTest, TransitionsAreUniformOverNeighborsAndReal) {
  // Conditional on being at v, the next node is uniform over N(v): i.i.d.
  // multinomial draws, the node2vec test idiom. Also: every emitted
  // transition must be an actual edge of G.
  const Graph g = KarateClub();
  NodeWalk walk(g);
  Rng rng(2004);
  walk.Reset(rng);
  // counts[v][i]: transitions v -> i-th neighbor of v.
  std::vector<std::vector<double>> counts(g.NumNodes());
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    counts[v].assign(g.Degree(v), 0.0);
  }
  std::vector<double> visits(g.NumNodes(), 0.0);
  const uint64_t steps = 300000;
  VertexId prev = walk.Current();
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    const VertexId cur = walk.Current();
    ASSERT_TRUE(g.HasEdge(prev, cur))
        << "walk emitted a non-edge " << prev << "-" << cur;
    const auto neighbors = g.Neighbors(prev);
    const auto it =
        std::lower_bound(neighbors.begin(), neighbors.end(), cur);
    ASSERT_TRUE(it != neighbors.end() && *it == cur);
    counts[prev][static_cast<size_t>(it - neighbors.begin())] += 1.0;
    visits[prev] += 1.0;
    prev = cur;
  }
  // Pooled chi-square across start nodes: df = sum_v (deg_v - 1).
  double stat = 0.0;
  int df = 0;
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) < 2 || visits[v] < 5.0 * g.Degree(v)) continue;
    const std::vector<double> expected(
        g.Degree(v), visits[v] / static_cast<double>(g.Degree(v)));
    stat += ChiSquareStatistic(counts[v], expected);
    df += static_cast<int>(g.Degree(v)) - 1;
  }
  ASSERT_GT(df, 0);
  EXPECT_LT(stat, ChiSquareCriticalValue(df, kTailZ)) << "df=" << df;
}

// Chi-square GOF of thinned EdgeWalk visits vs
// pi(e_uv) = (d_u + d_v - 2) / 2|R(2)| (paper Section 2.2 on G(2)).
void CheckEdgeStationary(const Graph& g, bool nb, uint64_t seed,
                         uint64_t samples) {
  EdgeWalk walk(g, nb);
  Rng rng(seed);
  walk.Reset(rng);
  std::map<std::pair<VertexId, VertexId>, double> observed;
  for (uint64_t s = 0; s < samples; ++s) {
    for (uint64_t t = 0; t < kThin; ++t) walk.Step(rng);
    const auto nodes = walk.Nodes();
    observed[{nodes[0], nodes[1]}] += 1.0;
  }
  const double two_r2 = 2.0 * static_cast<double>(g.WedgeCount());
  std::vector<double> obs_cells;
  std::vector<double> exp_cells;
  for (VertexId u = 0; u < g.NumNodes(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u >= v) continue;
      const double expected =
          static_cast<double>(g.Degree(u) + g.Degree(v) - 2) / two_r2 *
          static_cast<double>(samples);
      ASSERT_GE(expected, 5.0) << "cell too thin for chi-square";
      const auto it = observed.find({u, v});
      obs_cells.push_back(it == observed.end() ? 0.0 : it->second);
      exp_cells.push_back(expected);
    }
  }
  const double stat = ChiSquareStatistic(obs_cells, exp_cells);
  const int df = static_cast<int>(exp_cells.size()) - 1;
  EXPECT_LT(stat, ChiSquareCriticalValue(df, kTailZ))
      << "df=" << df << " nb=" << nb;
}

TEST(EdgeWalkDistributionTest, StationaryChiSquareOnKarateClub) {
  // The NB walk keeps the same stationary law (paper Section 4.2).
  CheckEdgeStationary(KarateClub(), /*nb=*/false, /*seed=*/2005,
                      /*samples=*/30000);
  CheckEdgeStationary(KarateClub(), /*nb=*/true, /*seed=*/2008,
                      /*samples=*/30000);
}

TEST(EdgeWalkDistributionTest, EveryStateIsARealEdgeSharingOneEndpoint) {
  // G(2) adjacency: consecutive edge states share exactly d - 1 = 1
  // vertex, and every state is an existing edge of G. The NB walk also
  // never returns to the previous state while it has another neighbor.
  const Graph g = KarateClub();
  for (const bool nb : {false, true}) {
    SCOPED_TRACE(nb ? "NB" : "plain");
    EdgeWalk walk(g, nb);
    Rng rng(2006);
    walk.Reset(rng);
    std::vector<VertexId> before;
    std::vector<VertexId> prev(walk.Nodes().begin(), walk.Nodes().end());
    ASSERT_TRUE(g.HasEdge(prev[0], prev[1]));
    for (int s = 0; s < 20000; ++s) {
      const uint64_t degree = walk.StateDegree();
      walk.Step(rng);
      const std::vector<VertexId> cur(walk.Nodes().begin(),
                                      walk.Nodes().end());
      ASSERT_TRUE(g.HasEdge(cur[0], cur[1]))
          << "state is not an edge: " << cur[0] << "-" << cur[1];
      int shared = 0;
      for (VertexId a : prev) {
        if (a == cur[0] || a == cur[1]) ++shared;
      }
      ASSERT_EQ(shared, 1) << "consecutive states must share one endpoint";
      if (nb && degree >= 2) {
        ASSERT_NE(cur, before) << "NB walk backtracked at step " << s;
      }
      before = std::move(prev);
      prev = cur;
    }
  }
}

TEST(EdgeWalkDistributionTest, TransitionsAreUniformOverNeighborStates) {
  // From state e_uv the walk picks uniformly among the d_u + d_v - 2
  // neighbor states. Pool per-state chi-squares for frequently visited
  // states on a small fixture where states recur often.
  const Graph g = Lollipop(5, 2);  // K5 plus a 2-node tail
  EdgeWalk walk(g);
  Rng rng(2007);
  walk.Reset(rng);
  using State = std::pair<VertexId, VertexId>;
  std::map<State, std::map<State, double>> transitions;
  std::map<State, double> visits;
  State prev = {walk.Nodes()[0], walk.Nodes()[1]};
  const uint64_t steps = 200000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    const State cur = {walk.Nodes()[0], walk.Nodes()[1]};
    transitions[prev][cur] += 1.0;
    visits[prev] += 1.0;
    prev = cur;
  }
  double stat = 0.0;
  int df = 0;
  for (const auto& [state, outs] : transitions) {
    const double deg = static_cast<double>(
        g.Degree(state.first) + g.Degree(state.second) - 2);
    if (visits[state] < 5.0 * deg) continue;
    // All observed next-states must be G(2) neighbors: share an endpoint.
    std::vector<double> obs;
    for (const auto& [next, count] : outs) {
      int shared = 0;
      if (next.first == state.first || next.first == state.second) ++shared;
      if (next.second == state.first || next.second == state.second) {
        ++shared;
      }
      ASSERT_EQ(shared, 1);
      obs.push_back(count);
    }
    // Unvisited neighbor states are zero-count cells.
    while (obs.size() < static_cast<size_t>(deg)) obs.push_back(0.0);
    ASSERT_LE(obs.size(), static_cast<size_t>(deg));
    const std::vector<double> expected(obs.size(), visits[state] / deg);
    stat += ChiSquareStatistic(obs, expected);
    df += static_cast<int>(deg) - 1;
  }
  ASSERT_GT(df, 0);
  EXPECT_LT(stat, ChiSquareCriticalValue(df, kTailZ)) << "df=" << df;
}

// Every connected induced d-node subgraph of a small g (the G(d) state
// space), each as a sorted node set.
void CollectStates(const Graph& g, int d, std::vector<VertexId>& prefix,
                   std::vector<std::vector<VertexId>>& out) {
  if (static_cast<int>(prefix.size()) == d) {
    if (InducedSubgraphConnected(g, prefix)) out.push_back(prefix);
    return;
  }
  const VertexId first = prefix.empty() ? 0 : prefix.back() + 1;
  for (VertexId v = first; v < g.NumNodes(); ++v) {
    prefix.push_back(v);
    CollectStates(g, d, prefix, out);
    prefix.pop_back();
  }
}

// Chi-square GOF of thinned SubgraphWalk visits vs
// pi(s) = deg_{G(d)}(s) / 2|R(d)| over the enumerated G(d) state space.
void CheckSubgraphStationary(const Graph& g, int d, bool nb, uint64_t seed,
                             uint64_t samples) {
  SubgraphWalk walk(g, d, nb);
  Rng rng(seed);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, double> observed;
  for (uint64_t s = 0; s < samples; ++s) {
    for (uint64_t t = 0; t < kThin; ++t) walk.Step(rng);
    const auto nodes = walk.Nodes();
    observed[std::vector<VertexId>(nodes.begin(), nodes.end())] += 1.0;
  }
  std::vector<VertexId> prefix;
  std::vector<std::vector<VertexId>> states;
  CollectStates(g, d, prefix, states);
  double degree_sum = 0.0;
  std::vector<double> degrees;
  for (const auto& nodes : states) {
    degrees.push_back(static_cast<double>(SubgraphStateDegree(g, nodes)));
    degree_sum += degrees.back();
  }
  std::vector<double> obs_cells;
  std::vector<double> exp_cells;
  for (size_t i = 0; i < states.size(); ++i) {
    const double expected =
        degrees[i] / degree_sum * static_cast<double>(samples);
    ASSERT_GE(expected, 5.0) << "cell too thin for chi-square";
    const auto it = observed.find(states[i]);
    obs_cells.push_back(it == observed.end() ? 0.0 : it->second);
    exp_cells.push_back(expected);
  }
  const double stat = ChiSquareStatistic(obs_cells, exp_cells);
  const int df = static_cast<int>(exp_cells.size()) - 1;
  EXPECT_LT(stat, ChiSquareCriticalValue(df, kTailZ))
      << "d=" << d << " nb=" << nb << " df=" << df;
}

TEST(SubgraphWalkDistributionTest, StationaryChiSquare) {
  // The only chi-square checks of the G(d) walk for d >= 3, on fixtures
  // small enough to enumerate the full state space. The NB walk keeps the
  // same stationary law (paper Section 4.2).
  CheckSubgraphStationary(Lollipop(4, 2), /*d=*/3, /*nb=*/false,
                          /*seed=*/3003, /*samples=*/24000);
  CheckSubgraphStationary(Lollipop(5, 2), /*d=*/4, /*nb=*/false,
                          /*seed=*/3006, /*samples=*/24000);
  CheckSubgraphStationary(Lollipop(4, 2), /*d=*/3, /*nb=*/true,
                          /*seed=*/3007, /*samples=*/24000);
}

// Pooled chi-square of the G(d) walk's moves against uniform over each
// state's neighbor states, over cells visited often enough; every move
// must land on an allowed neighbor. Under NB the cells are keyed by
// (previous state, state): the move is uniform over the neighbors other
// than the previous state, and is the previous state when that is the
// only neighbor. Returns the G(d)-degrees of the states left.
std::set<size_t> CheckGdTransitions(const Graph& g, int d, bool nb,
                                    uint64_t seed, uint64_t steps) {
  SubgraphWalk walk(g, d, nb);
  Rng rng(seed);
  walk.Reset(rng);
  using State = std::vector<VertexId>;
  // (previous state, empty when unkeyed or unknown; state)
  using Key = std::pair<State, State>;
  std::map<Key, std::map<State, double>> transitions;
  State before;
  State prev(walk.Nodes().begin(), walk.Nodes().end());
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    State cur(walk.Nodes().begin(), walk.Nodes().end());
    transitions[{nb ? before : State{}, prev}][cur] += 1.0;
    before = std::move(prev);
    prev = std::move(cur);
  }
  double stat = 0.0;
  int df = 0;
  std::set<size_t> degrees;
  std::vector<VertexId> neighbors;
  for (const auto& [key, outs] : transitions) {
    const auto& [previous, state] = key;
    neighbors.clear();
    EnumerateGdNeighbors(g, state, &neighbors);
    std::vector<State> allowed;
    for (size_t i = 0; i < neighbors.size(); i += state.size()) {
      allowed.emplace_back(neighbors.begin() + i,
                           neighbors.begin() + i + state.size());
    }
    degrees.insert(allowed.size());
    if (allowed.size() >= 2) std::erase(allowed, previous);
    double visits = 0.0;
    for (const auto& [next, count] : outs) {
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), next),
                allowed.end())
          << "d=" << d << " nb=" << nb << ": a move the walk may not make";
      visits += count;
    }
    const double cells = static_cast<double>(allowed.size());
    if (allowed.size() < 2 || visits < 5.0 * cells) continue;
    std::vector<double> obs;
    for (const auto& [next, count] : outs) obs.push_back(count);
    // Unvisited neighbor states are zero-count cells.
    while (obs.size() < allowed.size()) obs.push_back(0.0);
    const std::vector<double> expected(obs.size(), visits / cells);
    stat += ChiSquareStatistic(obs, expected);
    df += static_cast<int>(allowed.size()) - 1;
  }
  EXPECT_GT(df, 0) << "d=" << d << " nb=" << nb;
  EXPECT_LT(stat, ChiSquareCriticalValue(df, kTailZ))
      << "d=" << d << " nb=" << nb << " df=" << df;
  return degrees;
}

TEST(SubgraphWalkDistributionTest, TransitionsUniformOverGdNeighbors) {
  // Plain and NB walks at d = 3 and 4 on two fixtures. The lollipop's
  // states recur often. K4 with a 5-edge tail 3-4-5-6-7-8 has, at both
  // d, a tail-end state of G(d)-degree 1, which NB must leave by
  // backtracking, and one of degree 2, where NB must go on to the
  // neighbor it did not come from.
  const Graph lollipop = Lollipop(5, 2);
  const Graph tail = FromEdges(9, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3},
                                   {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                                   {7, 8}});
  for (const int d : {3, 4}) {
    for (const bool nb : {false, true}) {
      const uint64_t seed = 3005 + 10 * d + nb;
      CheckGdTransitions(lollipop, d, nb, seed, /*steps=*/120000);
      const std::set<size_t> degrees =
          CheckGdTransitions(tail, d, nb, seed, /*steps=*/120000);
      EXPECT_TRUE(degrees.contains(1) && degrees.contains(2))
          << "d=" << d << ": the tail fixture lost its degree-1 or -2 state";
    }
  }
}

}  // namespace
}  // namespace grw
