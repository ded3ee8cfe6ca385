// Property-based sweeps across graph families and estimator settings:
// invariants that must hold for every (family, seed, config) combination.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/alpha.h"
#include "core/css.h"
#include "core/estimator.h"
#include "core/rsize.h"
#include "exact/esu.h"
#include "exact/exact.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graphlet/catalog.h"
#include "graphlet/classifier.h"
#include "graphlet/noninduced.h"
#include "util/rng.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

// ---------------------------------------------------------------------
// Graph-family parameterization.

enum class Family { kErdosRenyi, kBarabasiAlbert, kHolmeKim, kWattsStrogatz };

struct FamilyCase {
  Family family;
  uint64_t seed;
};

Graph MakeFamilyGraph(const FamilyCase& c, VertexId n) {
  Rng rng(c.seed);
  Graph g;
  switch (c.family) {
    case Family::kErdosRenyi:
      g = ErdosRenyi(n, 3 * static_cast<uint64_t>(n), rng);
      break;
    case Family::kBarabasiAlbert:
      g = BarabasiAlbert(n, 3, rng);
      break;
    case Family::kHolmeKim:
      g = HolmeKim(n, 3, 0.6, rng);
      break;
    case Family::kWattsStrogatz:
      g = WattsStrogatz(n, 3, 0.15, rng);
      break;
  }
  return LargestConnectedComponent(g);
}

std::string FamilyName(const ::testing::TestParamInfo<FamilyCase>& info) {
  const char* name = info.param.family == Family::kErdosRenyi ? "ER"
                     : info.param.family == Family::kBarabasiAlbert
                         ? "BA"
                     : info.param.family == Family::kHolmeKim ? "HK"
                                                              : "WS";
  return std::string(name) + "_seed" + std::to_string(info.param.seed);
}

class FamilyProperty : public ::testing::TestWithParam<FamilyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyProperty,
    ::testing::Values(FamilyCase{Family::kErdosRenyi, 1},
                      FamilyCase{Family::kErdosRenyi, 2},
                      FamilyCase{Family::kBarabasiAlbert, 1},
                      FamilyCase{Family::kBarabasiAlbert, 2},
                      FamilyCase{Family::kHolmeKim, 1},
                      FamilyCase{Family::kHolmeKim, 2},
                      FamilyCase{Family::kWattsStrogatz, 1}),
    FamilyName);

TEST_P(FamilyProperty, FourNodeFormulasMatchEnumeration) {
  const Graph g = MakeFamilyGraph(GetParam(), 70);
  EXPECT_EQ(ExactGraphletCounts(g, 4), CountGraphletsEsu(g, 4));
}

TEST_P(FamilyProperty, EstimatorConcentrationsSumToOne) {
  const Graph g = MakeFamilyGraph(GetParam(), 120);
  for (const EstimatorConfig& config :
       {EstimatorConfig{3, 1, true, true}, EstimatorConfig{4, 2, true, false},
        EstimatorConfig{5, 2, false, false}}) {
    const auto result = GraphletEstimator::Estimate(g, config, 4000, 9);
    double sum = 0.0;
    for (double c : result.concentrations) {
      EXPECT_GE(c, 0.0);
      sum += c;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << config.Name();
    EXPECT_EQ(result.steps, 4000u);
  }
}

TEST_P(FamilyProperty, WindowUnionNeverExceedsK) {
  // Structural invariant behind the sample window: any l consecutive
  // states of a walk on G(d) cover at most d + l - 1 distinct vertices.
  const Graph g = MakeFamilyGraph(GetParam(), 100);
  Rng rng(GetParam().seed);
  SubgraphWalk walk(g, 3);
  walk.Reset(rng);
  std::vector<VertexId> window[3];
  for (int s = 0; s < 2000; ++s) {
    walk.Step(rng);
    window[s % 3].assign(walk.Nodes().begin(), walk.Nodes().end());
    if (s >= 2) {
      std::vector<VertexId> all;
      for (const auto& w : window) all.insert(all.end(), w.begin(), w.end());
      std::sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      EXPECT_LE(all.size(), 5u);  // d + l - 1 = 3 + 2
    }
  }
}

TEST_P(FamilyProperty, RelationshipGraphHandshake) {
  // |R(3)| from degree sums must equal the pair-counting definition on
  // small graphs.
  const Graph g = MakeFamilyGraph(GetParam(), 24);
  uint64_t pairs = 0;
  std::vector<std::vector<VertexId>> states;
  ForEachConnectedSubgraph(g, 3, [&](std::span<const VertexId> nodes) {
    std::vector<VertexId> sorted(nodes.begin(), nodes.end());
    std::sort(sorted.begin(), sorted.end());
    states.push_back(std::move(sorted));
  });
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = i + 1; j < states.size(); ++j) {
      std::vector<VertexId> shared;
      std::set_intersection(states[i].begin(), states[i].end(),
                            states[j].begin(), states[j].end(),
                            std::back_inserter(shared));
      if (shared.size() == 2) ++pairs;
    }
  }
  EXPECT_EQ(RelationshipEdgeCount(g, 3), pairs);
}

// ---------------------------------------------------------------------
// Alpha/CSS invariants swept over every graphlet.

class GraphletSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, GraphletSweep, ::testing::Values(3, 4, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST_P(GraphletSweep, AlphaIsEvenAndMonotoneUnderEdgeAddition) {
  // alpha counts ordered sequences; reversal pairs them, so alpha is even.
  const int k = GetParam();
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  for (int d = 1; d < k; ++d) {
    for (int id = 0; id < catalog.NumTypes(); ++id) {
      const int64_t a = Alpha(catalog.Get(id), d);
      EXPECT_EQ(a % 2, 0) << "k=" << k << " d=" << d << " id=" << id;
      EXPECT_GE(a, 0);
    }
    // The clique maximizes alpha for every d (its relationship graph is
    // the densest).
    int64_t clique_alpha = Alpha(catalog.Get(catalog.NumTypes() - 1), d);
    for (int id = 0; id < catalog.NumTypes(); ++id) {
      EXPECT_LE(Alpha(catalog.Get(id), d), clique_alpha);
    }
  }
}

TEST_P(GraphletSweep, PsrwAlphaNeverZero) {
  // For d = k-1 every graphlet is observable: removing one vertex from a
  // connected graph always leaves at least one connected (k-1)-subset,
  // hence |S| >= 2 and alpha > 0.
  const int k = GetParam();
  if (k == 3) return;  // d = 2 = k-1 covered below anyway
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    EXPECT_GT(Alpha(catalog.Get(id), k - 1), 0) << "id=" << id;
  }
}

TEST_P(GraphletSweep, Srw2SeesEverything) {
  // Edge walks observe every graphlet type (every connected graph has a
  // spanning walk of edges adding one vertex at a time).
  const int k = GetParam();
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  if (k < 3) return;
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    EXPECT_GT(Alpha(catalog.Get(id), std::min(2, k - 1)), 0) << "id=" << id;
  }
}

TEST_P(GraphletSweep, CssEntriesInteriorsAreValidStates) {
  const int k = GetParam();
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  for (int d = 1; d < k; ++d) {
    const CssTable& table = CssTable::For(k, d);
    const int l = k - d + 1;
    for (int id = 0; id < catalog.NumTypes(); ++id) {
      for (const CssEntry& entry : table.Entries(id)) {
        EXPECT_EQ(entry.num_interior, std::max(0, l - 2));
        for (int t = 0; t < entry.num_interior; ++t) {
          EXPECT_EQ(std::popcount(static_cast<unsigned>(entry.interior[t])),
                    d);
        }
        EXPECT_GT(entry.count, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Lemma 5 (CSS variance reduction), checked empirically: the spread of
// CSS estimates across chains is no larger than the base estimator's.

TEST(CssVarianceTest, CssReducesSpreadOnCliqueConcentration) {
  Rng rng(77);
  const Graph g = LargestConnectedComponent(HolmeKim(600, 5, 0.5, rng));
  const GraphletCatalog& c4 = GraphletCatalog::ForSize(4);
  const int clique = c4.IdByName("4-clique");
  auto spread = [&](bool css) {
    std::vector<double> estimates;
    EstimatorConfig config{4, 2, css, false};
    for (int c = 0; c < 30; ++c) {
      estimates.push_back(GraphletEstimator::Estimate(g, config, 5000,
                                                      4000 + c)
                              .concentrations[clique]);
    }
    double mean = 0.0;
    for (double e : estimates) mean += e / estimates.size();
    double var = 0.0;
    for (double e : estimates) var += (e - mean) * (e - mean);
    return var / estimates.size();
  };
  // Allow slack: Lemma 5 is exact for independent samples; chains are
  // correlated, so require "not much worse" and expect clear improvement.
  EXPECT_LT(spread(true), spread(false) * 1.05);
}

}  // namespace
}  // namespace grw
