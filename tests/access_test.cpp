// Tests for the graph access layer (graph/access.h): the CrawlAccess
// policy — LRU eviction order, hit/miss accounting under adversarial
// revisit patterns (the paper's cost model charges only distinct
// neighbor-list fetches), latency accumulation, and budget exhaustion.
// What the cache holds is observed through stats() and Holds(): re-reading
// a cached list adds a hit, re-reading an evicted one adds a fetch.

#include "graph/access.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

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
  // 0 means unbounded, and a capacity beyond the node count is clamped to
  // it: either way every list stays cached once fetched.
  for (const uint64_t entries : {uint64_t{0}, uint64_t{10} * g.NumNodes()}) {
    SCOPED_TRACE(entries);
    CrawlAccess::Options opt;
    opt.cache_entries = entries;
    CrawlAccess crawl(g, opt);
    for (int round = 0; round < 3; ++round) {
      for (VertexId v = 0; v < g.NumNodes(); ++v) {
        (void)crawl.Degree(round == 1 ? g.NumNodes() - 1 - v : v);
      }
    }
    EXPECT_EQ(crawl.stats().fetches, g.NumNodes());
    EXPECT_EQ(crawl.stats().distinct_fetches, g.NumNodes());
    EXPECT_EQ(crawl.stats().cache_hits, 2u * g.NumNodes());
    EXPECT_EQ(crawl.stats().evictions, 0u);
    EXPECT_EQ(crawl.stats().Refetches(), 0u);
  }
}

TEST(CrawlAccessTest, LruEvictsLeastRecentlyUsed) {
  const Graph g = KarateClub();
  CrawlAccess::Options opt;
  opt.cache_entries = 2;
  CrawlAccess crawl(g, opt);

  (void)crawl.Neighbors(0);  // miss, cache: {0}
  (void)crawl.Neighbors(1);  // miss, cache: {1, 0}
  (void)crawl.Neighbors(0);  // hit; touch 0 -> LRU order now {0, 1}
  EXPECT_EQ(crawl.stats().cache_hits, 1u);
  EXPECT_EQ(crawl.stats().fetches, 2u);
  (void)crawl.Neighbors(2);  // miss; evicts 1 (least recently used) -> {2, 0}
  EXPECT_EQ(crawl.stats().fetches, 3u);
  EXPECT_EQ(crawl.stats().evictions, 1u);
  (void)crawl.Neighbors(0);  // hit: 0 survived -> {0, 2}
  EXPECT_EQ(crawl.stats().cache_hits, 2u);
  EXPECT_EQ(crawl.stats().fetches, 3u);
  (void)crawl.Neighbors(1);  // 1 was evicted: re-fetch, evicting 2 -> {1, 0}
  EXPECT_EQ(crawl.stats().fetches, 4u);
  EXPECT_EQ(crawl.stats().distinct_fetches, 3u);  // raw grows, distinct not
  EXPECT_EQ(crawl.stats().Refetches(), 1u);
  EXPECT_EQ(crawl.stats().evictions, 2u);
  (void)crawl.Neighbors(0);  // hit -> {0, 1}
  EXPECT_EQ(crawl.stats().cache_hits, 3u);
  (void)crawl.Neighbors(2);  // 2 was the LRU when 1 came back: re-fetch
  EXPECT_EQ(crawl.stats().fetches, 5u);
  EXPECT_EQ(crawl.stats().Refetches(), 2u);
  EXPECT_EQ(crawl.stats().cache_hits, 3u);
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
  // Neither endpoint cached: one fetch (the first argument's list).
  (void)crawl.HasEdge(5, 6);
  EXPECT_EQ(crawl.stats().fetches, fetches_before + 1);
  // 5 was fetched (reading it is a hit); 0 and 6 were not.
  const uint64_t hits_before = crawl.stats().cache_hits;
  (void)crawl.Neighbors(5);
  EXPECT_EQ(crawl.stats().cache_hits, hits_before + 1);
  (void)crawl.Neighbors(0);
  (void)crawl.Neighbors(6);
  EXPECT_EQ(crawl.stats().fetches, fetches_before + 3);
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

// The LRU a crawl cache must behave as, written the obvious way: a
// recency list, a map from each cached node to its place in it, and the
// set of nodes ever fetched.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Holds(VertexId v) const { return place_.count(v) != 0; }

  void Read(VertexId v) {
    const auto it = place_.find(v);
    if (it != place_.end()) {
      ++hits;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    ++fetches;
    if (fetched_.insert(v).second) ++distinct_fetches;
    if (capacity_ != 0 && order_.size() == capacity_) {
      place_.erase(order_.back());
      order_.pop_back();
      ++evictions;
    }
    order_.push_front(v);
    place_[v] = order_.begin();
  }

  // An adjacency test searches u's list unless only v's is cached.
  void HasEdge(VertexId u, VertexId v) { Read(!Holds(u) && Holds(v) ? v : u); }

  uint64_t hits = 0;
  uint64_t fetches = 0;
  uint64_t distinct_fetches = 0;
  uint64_t evictions = 0;

 private:
  uint64_t capacity_;  // 0 = unbounded
  std::list<VertexId> order_;  // most recently used first
  std::unordered_map<VertexId, std::list<VertexId>::iterator> place_;
  std::unordered_set<VertexId> fetched_;
};

TEST(CrawlAccessTest, MatchesAReferenceLru) {
  Rng graph_rng(33);
  const Graph g = HolmeKim(3000, 3, 0.5, graph_rng);
  const VertexId n = g.NumNodes();
  for (const uint64_t capacity : {1, 2, 3, 64, 1024, 0}) {
    SCOPED_TRACE(capacity);
    CrawlAccess::Options opt;
    opt.cache_entries = capacity;
    CrawlAccess crawl(g, opt);
    ReferenceLru ref(capacity);
    Rng rng(1000 + capacity);
    // A walk with restarts reads through the crawler, as a chain does:
    // mostly nodes near recent ones, sometimes anywhere in the graph.
    VertexId at = 0;
    std::vector<VertexId> recent(8, 0);
    for (int read = 0; read < 100000; ++read) {
      const auto nbrs = g.Neighbors(at);
      at = nbrs.empty() || rng.Bernoulli(0.1)
               ? static_cast<VertexId>(rng.UniformInt(n))
               : nbrs[rng.UniformInt(nbrs.size())];
      const VertexId other = rng.Bernoulli(0.5)
                                 ? recent[rng.UniformInt(recent.size())]
                                 : static_cast<VertexId>(rng.UniformInt(n));
      recent[read % recent.size()] = at;
      switch (rng.UniformInt(4)) {
        case 0:
          ASSERT_EQ(crawl.Degree(at), g.Degree(at));
          ref.Read(at);
          break;
        case 1: {
          const auto got = crawl.Neighbors(at);
          const auto want = g.Neighbors(at);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                 want.end()));
          ref.Read(at);
          break;
        }
        case 2:
          ASSERT_EQ(crawl.HasEdge(at, other), g.HasEdge(at, other));
          ref.HasEdge(at, other);
          break;
        default:
          ASSERT_EQ(crawl.HasEdge(other, at), g.HasEdge(other, at));
          ref.HasEdge(other, at);
          break;
      }
      ASSERT_EQ(crawl.Holds(at), ref.Holds(at)) << "read " << read;
      ASSERT_EQ(crawl.Holds(other), ref.Holds(other)) << "read " << read;
      const CrawlStats& s = crawl.stats();
      ASSERT_EQ(s.cache_hits, ref.hits) << "read " << read;
      ASSERT_EQ(s.fetches, ref.fetches) << "read " << read;
      ASSERT_EQ(s.distinct_fetches, ref.distinct_fetches) << "read " << read;
      ASSERT_EQ(s.evictions, ref.evictions) << "read " << read;
      if (read % 4096 == 0) {
        for (VertexId v = 0; v < n; ++v) {
          ASSERT_EQ(crawl.Holds(v), ref.Holds(v)) << "read " << read;
        }
      }
    }
    // Most of the graph was fetched, so every node index doubled: a
    // bounded one once it passed C distinct fetches (it starts at
    // bit_ceil(max(2C, 64)) cells: 64 for C <= 32, 128 for C = 64 and
    // 2048 for C = 1024), the unbounded one (64 cells at first) many
    // times. A bounded cache re-fetched evicted nodes over and over.
    EXPECT_GT(ref.distinct_fetches, 2000u);
    if (capacity != 0) {
      EXPECT_GT(crawl.stats().Refetches(), 20000u);
    } else {
      EXPECT_EQ(crawl.stats().Refetches(), 0u);
    }
  }
}

}  // namespace
}  // namespace grw
