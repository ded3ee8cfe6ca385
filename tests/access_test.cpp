// Tests for the graph access layer (graph/access.h): the CrawlAccess
// policy — LRU eviction order, hit/miss accounting under adversarial
// revisit patterns (the paper's cost model charges only distinct
// neighbor-list fetches), latency accumulation, and budget exhaustion.

#include "graph/access.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"

namespace grw {
namespace {

// ---------------------------------------------------------- CrawlAccess --

TEST(CrawlAccessTest, ReadsMatchTheGraphExactly) {
  const Graph g = KarateClub();
  CrawlAccess crawl(g, {});
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(crawl.Degree(v), g.Degree(v));
    const auto a = crawl.Neighbors(v);
    const auto b = g.Neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    for (uint32_t i = 0; i < g.Degree(v); ++i) {
      ASSERT_EQ(crawl.Neighbor(v, i), g.Neighbor(v, i));
    }
  }
  for (VertexId u = 0; u < g.NumNodes(); ++u) {
    for (VertexId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(crawl.HasEdge(u, v), g.HasEdge(u, v)) << u << "," << v;
    }
  }
}

TEST(CrawlAccessTest, UnboundedCacheFetchesEachNodeOnce) {
  const Graph g = KarateClub();
  CrawlAccess crawl(g, {});  // cache_entries = 0 -> unbounded
  EXPECT_EQ(crawl.CacheCapacity(), g.NumNodes());
  for (int round = 0; round < 3; ++round) {
    for (VertexId v = 0; v < g.NumNodes(); ++v) (void)crawl.Degree(v);
  }
  EXPECT_EQ(crawl.stats().fetches, g.NumNodes());
  EXPECT_EQ(crawl.stats().distinct_fetches, g.NumNodes());
  EXPECT_EQ(crawl.stats().cache_hits, 2u * g.NumNodes());
  EXPECT_EQ(crawl.stats().evictions, 0u);
  EXPECT_EQ(crawl.stats().Refetches(), 0u);
}

TEST(CrawlAccessTest, LruEvictsLeastRecentlyUsed) {
  const Graph g = KarateClub();
  CrawlAccess::Options opt;
  opt.cache_entries = 2;
  CrawlAccess crawl(g, opt);

  (void)crawl.Neighbors(0);  // cache: {0}
  (void)crawl.Neighbors(1);  // cache: {1, 0}
  EXPECT_TRUE(crawl.Cached(0));
  EXPECT_TRUE(crawl.Cached(1));
  (void)crawl.Neighbors(0);  // touch 0 -> LRU order now {0, 1}
  (void)crawl.Neighbors(2);  // evicts 1 (least recently used), not 0
  EXPECT_TRUE(crawl.Cached(0));
  EXPECT_FALSE(crawl.Cached(1));
  EXPECT_TRUE(crawl.Cached(2));
  EXPECT_EQ(crawl.stats().evictions, 1u);
  (void)crawl.Neighbors(1);  // re-fetch: raw grows, distinct does not
  EXPECT_EQ(crawl.stats().fetches, 4u);
  EXPECT_EQ(crawl.stats().distinct_fetches, 3u);
  EXPECT_EQ(crawl.stats().Refetches(), 1u);
  EXPECT_FALSE(crawl.Cached(0));  // 0 was the LRU when 1 came back
  EXPECT_TRUE(crawl.Cached(2));
}

TEST(CrawlAccessTest, AdversarialRevisitPatternAccounting) {
  // Cycle through cache_size + 1 nodes with a capacity-C LRU: every
  // access misses (the classic LRU worst case), so hits stay zero and
  // every revisit is a re-fetch.
  const Graph g = KarateClub();
  constexpr uint64_t kCapacity = 4;
  CrawlAccess::Options opt;
  opt.cache_entries = kCapacity;
  CrawlAccess crawl(g, opt);
  constexpr int kRounds = 10;
  constexpr VertexId kNodes = kCapacity + 1;
  for (int r = 0; r < kRounds; ++r) {
    for (VertexId v = 0; v < kNodes; ++v) (void)crawl.Degree(v);
  }
  EXPECT_EQ(crawl.stats().cache_hits, 0u);
  EXPECT_EQ(crawl.stats().fetches, uint64_t{kRounds} * kNodes);
  EXPECT_EQ(crawl.stats().distinct_fetches, kNodes);
  EXPECT_EQ(crawl.stats().evictions, uint64_t{kRounds} * kNodes - kCapacity);

  // The same pattern over only C nodes is all hits after the first round.
  CrawlAccess friendly(g, opt);
  for (int r = 0; r < kRounds; ++r) {
    for (VertexId v = 0; v < kCapacity; ++v) (void)friendly.Degree(v);
  }
  EXPECT_EQ(friendly.stats().fetches, kCapacity);
  EXPECT_EQ(friendly.stats().cache_hits,
            uint64_t{kRounds - 1} * kCapacity);
  EXPECT_DOUBLE_EQ(friendly.stats().HitRate(),
                   static_cast<double>(kRounds - 1) / kRounds);
}

TEST(CrawlAccessTest, HasEdgePrefersCachedEndpoint) {
  const Graph g = KarateClub();
  CrawlAccess crawl(g, {});
  (void)crawl.Neighbors(1);
  const uint64_t fetches_before = crawl.stats().fetches;
  // 1 is cached, 0 is not: the test searches 1's cached list — no fetch.
  (void)crawl.HasEdge(0, 1);
  EXPECT_EQ(crawl.stats().fetches, fetches_before);
  EXPECT_FALSE(crawl.Cached(0));
  // Neither endpoint cached: one fetch (the first argument's list).
  (void)crawl.HasEdge(5, 6);
  EXPECT_EQ(crawl.stats().fetches, fetches_before + 1);
  EXPECT_TRUE(crawl.Cached(5));
  EXPECT_FALSE(crawl.Cached(6));
}

TEST(CrawlAccessTest, SimulatedLatencyAccumulatesPerFetchOnly) {
  const Graph g = KarateClub();
  CrawlAccess::Options opt;
  opt.latency_us = 250.0;
  CrawlAccess crawl(g, opt);
  (void)crawl.Neighbors(3);
  (void)crawl.Neighbors(3);  // hit: no latency
  (void)crawl.Neighbors(4);
  EXPECT_DOUBLE_EQ(crawl.stats().simulated_latency_us, 500.0);
}

TEST(CrawlAccessTest, BudgetExhaustionOnDistinctFetches) {
  const Graph g = KarateClub();
  CrawlAccess::Options opt;
  opt.query_budget = 3;
  CrawlAccess crawl(g, opt);
  (void)crawl.Neighbors(0);
  (void)crawl.Neighbors(0);
  (void)crawl.Neighbors(1);
  EXPECT_FALSE(crawl.BudgetExhausted());  // 2 distinct < 3
  (void)crawl.Neighbors(2);
  EXPECT_TRUE(crawl.BudgetExhausted());
  // Reads still work after exhaustion: the budget is a stopping signal.
  EXPECT_EQ(crawl.Degree(3), g.Degree(3));
}

TEST(CrawlAccessTest, CacheSizeOneStillAnswersEverythingCorrectly) {
  // Capacity 1 is the degenerate LRU; results must stay exact.
  const Graph g = Lollipop(8, 5);
  CrawlAccess::Options opt;
  opt.cache_entries = 1;
  CrawlAccess crawl(g, opt);
  for (VertexId u = 0; u < g.NumNodes(); ++u) {
    for (VertexId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(crawl.HasEdge(u, v), g.HasEdge(u, v));
    }
  }
}

}  // namespace
}  // namespace grw
