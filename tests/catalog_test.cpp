// Tests for the graphlet catalog: counts, canonicalization, naming.

#include "graphlet/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>

#include "graphlet/classifier.h"

namespace grw {
namespace {

TEST(CatalogTest, GraphletCountsMatchKnownSequence) {
  // Connected non-isomorphic graphs on k nodes (paper Section 2.1 quotes
  // 2, 6, 21, 112 for k = 3..6).
  EXPECT_EQ(GraphletCatalog::ForSize(2).NumTypes(), 1);
  EXPECT_EQ(GraphletCatalog::ForSize(3).NumTypes(), 2);
  EXPECT_EQ(GraphletCatalog::ForSize(4).NumTypes(), 6);
  EXPECT_EQ(GraphletCatalog::ForSize(5).NumTypes(), 21);
  EXPECT_EQ(GraphletCatalog::ForSize(6).NumTypes(), 112);
}

TEST(CatalogTest, PairIndexLayout) {
  // Pairs are packed (0,1),(0,2),...,(k-2,k-1).
  EXPECT_EQ(PairIndex(4, 0, 1), 0);
  EXPECT_EQ(PairIndex(4, 0, 3), 2);
  EXPECT_EQ(PairIndex(4, 1, 2), 3);
  EXPECT_EQ(PairIndex(4, 2, 3), 5);
  EXPECT_EQ(PairIndex(5, 3, 4), NumPairBits(5) - 1);
}

TEST(CatalogTest, MaskConnectivity) {
  // Triangle is connected, single edge + isolated vertex is not.
  const uint32_t triangle = MaskFromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_TRUE(MaskIsConnected(triangle, 3));
  const uint32_t edge_plus_isolated = MaskFromEdges(3, {{0, 1}});
  EXPECT_FALSE(MaskIsConnected(edge_plus_isolated, 3));
  EXPECT_FALSE(MaskIsConnected(0, 2));
  EXPECT_TRUE(MaskIsConnected(0, 1));
}

TEST(CatalogTest, CanonicalMaskIsPermutationInvariant) {
  // Relabeling a path 0-1-2-3 arbitrarily yields the same canonical mask.
  const uint32_t path = MaskFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  int perm[4] = {2, 0, 3, 1};
  const uint32_t relabeled = ApplyPermutation(path, 4, perm);
  EXPECT_NE(path, relabeled);
  EXPECT_EQ(CanonicalMask(path, 4), CanonicalMask(relabeled, 4));
}

TEST(CatalogTest, CanonicalPermutationMapsToCanonicalForm) {
  const uint32_t star = MaskFromEdges(4, {{2, 0}, {2, 1}, {2, 3}});
  int perm[4];
  const uint32_t canon = CanonicalMask(star, 4, perm);
  EXPECT_EQ(ApplyPermutation(star, 4, perm), canon);
}

TEST(CatalogTest, NamesForThreeAndFourNodeGraphlets) {
  const GraphletCatalog& c3 = GraphletCatalog::ForSize(3);
  EXPECT_GE(c3.IdByName("wedge"), 0);
  EXPECT_GE(c3.IdByName("triangle"), 0);
  const GraphletCatalog& c4 = GraphletCatalog::ForSize(4);
  for (const char* name : {"4-path", "3-star", "4-cycle", "tailed-triangle",
                           "chordal-cycle", "4-clique"}) {
    EXPECT_GE(c4.IdByName(name), 0) << name;
  }
  EXPECT_EQ(c4.IdByName("no-such-graphlet"), -1);
}

TEST(CatalogTest, EdgeCountsAreOrderedAndStructuresConsistent) {
  for (int k = 3; k <= 5; ++k) {
    const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
    int prev_edges = 0;
    std::set<uint32_t> seen_masks;
    for (int id = 0; id < catalog.NumTypes(); ++id) {
      const Graphlet& g = catalog.Get(id);
      EXPECT_GE(g.num_edges, prev_edges);
      prev_edges = g.num_edges;
      EXPECT_EQ(g.num_edges, std::popcount(g.canonical_mask));
      EXPECT_EQ(static_cast<int>(g.edges.size()), g.num_edges);
      EXPECT_TRUE(seen_masks.insert(g.canonical_mask).second);
      EXPECT_EQ(CanonicalMask(g.canonical_mask, k), g.canonical_mask)
          << "stored mask must already be canonical";
      // Degree sum = 2 * edges; min graphlet degree >= 1 (connected).
      int deg_sum = 0;
      for (int v = 0; v < k; ++v) {
        EXPECT_GE(g.degree[v], 1);
        deg_sum += g.degree[v];
      }
      EXPECT_EQ(deg_sum, 2 * g.num_edges);
    }
    // Sparsest is the tree with k-1 edges, densest the clique.
    EXPECT_EQ(catalog.Get(0).num_edges, k - 1);
    EXPECT_EQ(catalog.Get(catalog.NumTypes() - 1).num_edges,
              k * (k - 1) / 2);
  }
}

TEST(CatalogTest, ClassifyAgreesWithCanonicalLookup) {
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(4);
  const GraphletClassifier& classifier = GraphletClassifier::ForSize(4);
  const uint32_t cycle_relabelled =
      MaskFromEdges(4, {{0, 2}, {2, 1}, {1, 3}, {3, 0}});
  EXPECT_EQ(classifier.Type(cycle_relabelled), catalog.IdByName("4-cycle"));
  EXPECT_EQ(classifier.Type(MaskFromEdges(4, {{0, 1}})), -1);
}

}  // namespace
}  // namespace grw
