// Tests for the paper-ID recovery (DESIGN.md Section 5).

#include "core/paper_ids.h"

#include <gtest/gtest.h>

#include <set>

#include "core/alpha.h"
#include "graphlet/catalog.h"

namespace grw {
namespace {

TEST(PaperIdsTest, OrdersAreBijections) {
  for (int k = 3; k <= 5; ++k) {
    const auto& order = PaperOrder(k);
    const int n = GraphletCatalog::ForSize(k).NumTypes();
    ASSERT_EQ(static_cast<int>(order.size()), n);
    std::set<int> seen(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(seen.size()), n);
    for (int id : order) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, n);
    }
  }
}

TEST(PaperIdsTest, KnownAnchors) {
  // Paper id 1 is always the k-path (tree with alpha_SRW1 = 2); the last
  // id is the k-clique.
  for (int k = 3; k <= 5; ++k) {
    const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
    const auto& order = PaperOrder(k);
    EXPECT_EQ(catalog.Get(order.front()).num_edges, k - 1);
    EXPECT_EQ(Alpha(catalog.Get(order.front()), 1), 2) << "k-path";
    EXPECT_EQ(catalog.Get(order.back()).num_edges, k * (k - 1) / 2)
        << "k-clique";
  }
}

TEST(PaperIdsTest, LabelsFollowPaperNotation) {
  EXPECT_EQ(PaperLabel(3, 0), "g31");
  EXPECT_EQ(PaperLabel(3, 1), "g32");
  EXPECT_EQ(PaperLabel(4, 5), "g46");
  EXPECT_EQ(PaperLabel(5, 0), "g5_1");
  EXPECT_EQ(PaperLabel(5, 20), "g5_21");
}

TEST(PaperIdsTest, SixNodeOrderIsCatalogOrder) {
  // The paper numbers no 6-node graphlets: position i is catalog id i.
  const auto& order = PaperOrder(6);
  ASSERT_EQ(order.size(), 112u);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    EXPECT_EQ(order[pos], static_cast<int>(pos));
  }
  EXPECT_EQ(PaperLabel(6, 0), "g6_1");
  EXPECT_EQ(PaperLabel(6, 111), "g6_112");
}

TEST(PaperIdsTest, FourNodeOrderMatchesFigure2) {
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(4);
  const auto& order = PaperOrder(4);
  EXPECT_EQ(catalog.Get(order[0]).name, "4-path");
  EXPECT_EQ(catalog.Get(order[1]).name, "3-star");
  EXPECT_EQ(catalog.Get(order[2]).name, "4-cycle");
  EXPECT_EQ(catalog.Get(order[3]).name, "tailed-triangle");
  EXPECT_EQ(catalog.Get(order[4]).name, "chordal-cycle");
  EXPECT_EQ(catalog.Get(order[5]).name, "4-clique");
}

TEST(PaperIdsTest, AlphaTablesHaveExpectedShapes) {
  EXPECT_EQ(PaperAlphaHalfTable(3).size(), 2u);
  EXPECT_EQ(PaperAlphaHalfTable(4).size(), 3u);
  EXPECT_EQ(PaperAlphaHalfTable(5).size(), 4u);
  for (const auto& row : PaperAlphaHalfTable(5)) {
    EXPECT_EQ(row.size(), 21u);
  }
}

TEST(PaperIdsTest, FiveNodeEdgeCountsAreNondecreasingInPaperOrderMostly) {
  // Sanity on the recovered 5-node order: the paper sorts its IDs roughly
  // from sparse (trees) to dense (clique); the first three are trees and
  // the last is the clique.
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(5);
  const auto& order = PaperOrder(5);
  EXPECT_EQ(catalog.Get(order[0]).num_edges, 4);
  EXPECT_EQ(catalog.Get(order[1]).num_edges, 4);
  EXPECT_EQ(catalog.Get(order[2]).num_edges, 4);
  EXPECT_EQ(catalog.Get(order[20]).num_edges, 10);
}

}  // namespace
}  // namespace grw
