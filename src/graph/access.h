// Graph access policies: the crawling setting of the paper as a *static*
// dispatch family.
//
// The paper's motivating scenario (Section 1): the graph is only reachable
// through OSN APIs that answer "give me v's friend list" at real cost per
// query. Everything the estimation stack reads from a graph goes through
// four accessors — Degree, Neighbors, Neighbor, HasEdge — so the stack
// (walkers, sample window, CSS weights, estimator) is templated on the
// access policy G, a member of the closed family GRW_ACCESS_FAMILY below.
// Each storage kind has a reader, and crawl mode is a cache in front of
// either reader:
//
//   Graph          in-memory storage, read directly: the pre-policy code,
//                  byte for byte, with zero overhead.
//   ShardedAccess  out-of-core storage (graph/sharded_access.h).
//   CrawlAccessT<Base>
//                  crawl semantics over Base: a bounded LRU cache of
//                  fetched neighbor lists, where a miss is one counted API
//                  call to Base. Distinct-node fetches (the paper's cost
//                  model) are tracked apart from re-fetches of evicted
//                  nodes, and an optional query budget stops the
//                  estimator's run loop; the check compiles away for the
//                  uncached readers. CrawlAccess = CrawlAccessT<Graph>.
//
// Every member answers every read exactly as the Graph does, so estimates
// are bit-identical across the family (tests/conformance_test.cpp).

#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/sharded_access.h"
#include "util/fault.h"
#include "util/rng.h"

namespace grw {

/// The closed access family, listed once: X(type) for each member. Files
/// that explicitly instantiate the estimation stack expand it.
#define GRW_ACCESS_FAMILY(X)             \
  X(::grw::Graph)                        \
  X(::grw::ShardedAccess)                \
  X(::grw::CrawlAccessT<::grw::Graph>)   \
  X(::grw::CrawlAccessT<::grw::ShardedAccess>)

/// How a chain or a wrapper holds the access it reads through: the Graph
/// by reference (it is the storage itself), any other member by value
/// (a per-chain reader).
template <class A>
using HeldAccess =
    std::conditional_t<std::is_same_v<A, Graph>, const Graph&, A>;

/// Whether access policy G carries a distinct-query budget its run loop
/// must poll (the crawl members do). For the uncached readers this is
/// false and every budget check guarded by it compiles away.
template <class G>
constexpr bool kAccessHasQueryBudget = requires(const G& g) {
  { g.BudgetExhausted() } -> std::convertible_to<bool>;
};

/// Whether access policy G's reads are plain loads from memory (the
/// in-memory Graph). For such a reader a software prefetch is free of
/// side effects, so the estimator prefetches through it and the engine
/// steps a thread's chains as one interleaved group (core/estimator.h
/// RunGroup). The other members count every read in caches, and a
/// prefetch through them would count as a read. A crawl cache belongs
/// to one chain, so interleaving chains could not change its read
/// order; crawl chains step alone because groups of them, with a
/// prefetch through the base Graph, measured slower.
template <class G>
constexpr bool kAccessReadsArePlainLoads = std::is_same_v<G, Graph>;

/// Crawl-cost accounting. Additive across independent crawlers (the engine
/// merges per-chain stats in chain order).
struct CrawlStats {
  /// Neighbor-list fetches actually issued to the API (= cache misses).
  uint64_t fetches = 0;
  /// Unique nodes fetched at least once — the paper's cost model charges
  /// these: a real crawler keeps everything it ever downloaded, so only
  /// the first fetch of a node hits the remote API budget.
  uint64_t distinct_fetches = 0;
  /// Reads served from the LRU cache (no API call).
  uint64_t cache_hits = 0;
  /// Cache entries dropped to make room (each may cause a later re-fetch).
  uint64_t evictions = 0;
  /// Accumulated simulated API latency (latency_us per fetch).
  double simulated_latency_us = 0.0;
  /// Fetch attempts that failed transiently under the failure model
  /// (rate limits, 5xx, flaky transport — each failed attempt counts).
  uint64_t transient_failures = 0;
  /// Failed attempts answered by retrying (<= transient_failures).
  uint64_t retries = 0;
  /// Fetches whose bounded retry budget ran out; the crawler escalates
  /// to its slow reliable path (cost charged to backoff_latency_us), so
  /// the data still arrives and estimates are unaffected.
  uint64_t giveups = 0;
  /// Accumulated simulated retry-backoff wait (exponential + jitter).
  /// Like simulated_latency_us: virtual, never slept.
  double backoff_latency_us = 0.0;

  /// Fetches repeated because the LRU evicted the node in between.
  uint64_t Refetches() const { return fetches - distinct_fetches; }
  /// Fraction of all reads served from the cache.
  double HitRate() const {
    const uint64_t total = cache_hits + fetches;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }
  void MergeFrom(const CrawlStats& other) {
    fetches += other.fetches;
    distinct_fetches += other.distinct_fetches;
    cache_hits += other.cache_hits;
    evictions += other.evictions;
    simulated_latency_us += other.simulated_latency_us;
    transient_failures += other.transient_failures;
    retries += other.retries;
    giveups += other.giveups;
    backoff_latency_us += other.backoff_latency_us;
  }
};

/// How a crawler is configured; CrawlAccessT<Base>::Options. The engine
/// takes the same type for a whole run (EngineOptions::crawl) and hands
/// each chain a copy with its own query_budget share.
struct CrawlOptions {
  /// LRU capacity in cached neighbor lists; 0 = unbounded (never evict).
  uint64_t cache_entries = 0;
  /// Simulated latency charged per API fetch, in microseconds. Purely
  /// virtual: accumulated in stats, never slept, so simulations stay
  /// fast and deterministic.
  double latency_us = 0.0;
  /// Distinct-fetch budget; 0 = unlimited. Once reached,
  /// BudgetExhausted() turns true and the estimator run loop stops the
  /// chain (reads keep working — the budget is a stopping signal, not a
  /// hard fault).
  uint64_t query_budget = 0;

  /// Transient-fetch-failure model: real crawl APIs rate-limit and
  /// 5xx, and a crawler answers with bounded retries under
  /// exponential backoff plus a uniform jitter of up to half the wait,
  /// drawn from a private failure RNG (seeded by the crawler's
  /// constructor, never the walk's). Like latency_us this is a COST
  /// model, not a data model: a failed attempt charges retries /
  /// giveups / backoff_latency_us in CrawlStats (after the retry
  /// budget the crawler is modeled as escalating to its slow reliable
  /// path), but the fetch always ultimately serves correct bytes — so
  /// estimates stay bit-identical to a failure-free run, at any
  /// thread count, and the chaos suite can assert exactness.
  struct FailureModel {
    /// Per-attempt transient failure probability; 0 disables the model.
    double fail_prob = 0.0;
    /// Retry attempts before giving up on the fast path.
    int max_retries = 4;
    /// First backoff wait; doubles per retry: base * 2^attempt, capped
    /// at 1 s (also the modeled cost of the slow-path fallback after a
    /// giveup). A chaos-injected failure (fault builds) charges it once,
    /// whether or not fail_prob is set.
    double backoff_base_us = 1000.0;
  };
  FailureModel failure;
};

/// A crawler's local storage, apart from the bytes themselves: which
/// nodes' lists it holds (a bounded LRU over slots), which it ever
/// fetched, and what the fetches cost. The bytes come from the access it
/// sits in front of.
///
/// Like a real crawler it knows only what it has fetched, and its memory
/// grows with that, never with the graph: one open-addressing index
/// (power-of-two, linear probing, doubled once more than half full) maps
/// every node it ever fetched to the slot holding its list, or to none
/// once evicted. A miss on a node with no entry is a distinct fetch. A
/// bounded cache of capacity C sizes its index once, when it is built,
/// at bit_ceil(max(2C, 64)) cells, so it doubles only once more than C
/// distinct nodes were fetched. The LRU's slot table grows with the
/// slots in use, up to C. An unbounded cache, which never evicts, starts
/// its index at 64 cells (512 bytes) and keeps no LRU at all.
class CrawlCache {
 public:
  /// `num_nodes` only clamps the capacity (a cache of every node never
  /// evicts); `fail_seed` seeds the failure model's private RNG stream.
  CrawlCache(VertexId num_nodes, const CrawlOptions& options,
             uint64_t fail_seed = 0);

  /// Position of v's index entry, or of the empty cell a first fetch of
  /// v would take. Valid until the next first fetch of any node.
  uint32_t Find(VertexId v) const {
    uint32_t at = static_cast<uint32_t>((v * kFibonacci) >> shift_);
    while (index_[at].node != v && index_[at].node != kNoNode) {
      at = (at + 1) & mask_;
    }
    return at;
  }

  /// True iff the node whose position Find returned has its list cached
  /// (a read of it would be a hit).
  bool HoldsAt(uint32_t at) const { return index_[at].slot != kNoSlot; }
  bool Holds(VertexId v) const { return HoldsAt(Find(v)); }

  /// Reads v's list from `base` through the cache: a hit touches the
  /// LRU; a miss is a counted API fetch that inserts v, evicting the
  /// least-recently-used list when at capacity.
  template <class Base>
  std::span<const VertexId> Fetch(const Base& base, VertexId v) {
    return Fetch(base, v, Find(v));
  }

  /// Fetch(base, v) for a caller that already holds at = Find(v).
  template <class Base>
  std::span<const VertexId> Fetch(const Base& base, VertexId v,
                                  uint32_t at) {
    const uint32_t slot = index_[at].slot;
    if (slot != kNoSlot) {
      ++stats_.cache_hits;
      // Recency order only matters if something can ever be evicted; the
      // unbounded cache keeps no list.
      if (!never_evicts_ && head_ != slot) {
        Unlink(slot);
        PushFront(slot);
      }
    } else {
      Admit(v, at);
    }
    return base.Neighbors(v);
  }

  /// True once the distinct-fetch budget (if any) has been reached.
  bool BudgetExhausted() const {
    return opt_.query_budget > 0 &&
           stats_.distinct_fetches >= opt_.query_budget;
  }

  const CrawlStats& stats() const { return stats_; }

 private:
  static constexpr VertexId kNoNode = 0xFFFFFFFFu;  // above every node id
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  // 2^64 / golden ratio: Find hashes v to the top bits of v * kFibonacci.
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;

  struct Entry {
    VertexId node = kNoNode;
    uint32_t slot = kNoSlot;
  };
  struct Slot {
    VertexId node;        // whose list the slot holds
    uint32_t prev, next;  // LRU neighbors, toward head_ and tail_
  };

  // The miss path: one counted API fetch of v, whose index position is
  // `at`. Takes a free slot or evicts the least recently used list, and
  // gives v an index entry on its first fetch. Defined in access.cpp.
  void Admit(VertexId v, uint32_t at);
  // Doubles the index and reinserts every entry.
  void Grow();
  // Rolls the failure model for one API fetch: draws per-attempt
  // failures from the private failure RNG, charging retries, backoff
  // waits and (past the retry budget) one giveup to stats_. Cold path,
  // defined in access.cpp.
  void SimulateTransientFailures();
  // Books one chaos-injected transient failure + successful retry.
  void RecordInjectedFailure();

  void Unlink(uint32_t slot) {
    const uint32_t p = slots_[slot].prev;
    const uint32_t n = slots_[slot].next;
    if (p != kNoSlot) slots_[p].next = n; else head_ = n;
    if (n != kNoSlot) slots_[n].prev = p; else tail_ = p;
  }

  void PushFront(uint32_t slot) {
    slots_[slot].prev = kNoSlot;
    slots_[slot].next = head_;
    if (head_ != kNoSlot) slots_[head_].prev = slot; else tail_ = slot;
    head_ = slot;
  }

  CrawlOptions opt_;
  uint32_t capacity_;
  bool never_evicts_ = false;  // capacity_ covers every node
  CrawlStats stats_;
  // Node index: one entry per distinct fetch (stats_.distinct_fetches),
  // sized by the constructor.
  std::vector<Entry> index_;
  uint32_t mask_ = 0;  // index_.size() - 1
  // 64 - log2(index_.size()): Find shifts the hash right by this.
  int shift_ = 0;
  std::vector<Slot> slots_;  // LRU over the slots in use
  uint32_t head_ = kNoSlot;  // most recently used
  uint32_t tail_ = kNoSlot;  // least recently used
  uint32_t used_ = 0;        // slots handed out
  // Private stream for the failure model.
  Rng fail_rng_;
};

/// Neighbor-list-only crawl view of the access Base (Graph or
/// ShardedAccess) with per-query accounting and a bounded LRU neighbor
/// cache in front of it.
///
/// NOT thread-safe: one instance per chain/crawler (the engine gives every
/// chain its own). The read API mirrors Graph's, so any component
/// templated on the access policy accepts it. All reads are const; the
/// cache is mutable interior state, exactly like a real crawler's local
/// storage.
template <class Base>
class CrawlAccessT {
 public:
  using Options = CrawlOptions;

  CrawlAccessT(HeldAccess<Base> base, const Options& options,
               uint64_t fail_seed = 0)
      : base_(std::move(base)),
        cache_(base_.NumNodes(), options, fail_seed) {}

  /// Number of nodes/edges. NOT available through real crawl APIs;
  /// exposed for walk seeding and constructor validation in simulations.
  VertexId NumNodes() const { return base_.NumNodes(); }
  uint64_t NumEdges() const { return base_.NumEdges(); }

  /// Degree of v. Revealed by v's neighbor list: fetches v on a miss.
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(Fetch(v).size());
  }

  /// Full friend list of v (sorted), fetching on a miss.
  std::span<const VertexId> Neighbors(VertexId v) const { return Fetch(v); }

  /// The i-th neighbor of v (0-based, sorted order).
  VertexId Neighbor(VertexId v, uint32_t i) const { return Fetch(v)[i]; }

  /// Adjacency test, answered client-side by SortedContains over a
  /// fetched friend list: free (a cache hit) when either endpoint's list
  /// is cached, otherwise one API call for u's list. Identical result to
  /// Graph::HasEdge for every input.
  bool HasEdge(VertexId u, VertexId v) const {
    // Each endpoint is looked up in the cache's index once.
    const uint32_t at_u = cache_.Find(u);
    if (!cache_.HoldsAt(at_u)) {
      const uint32_t at_v = cache_.Find(v);
      if (cache_.HoldsAt(at_v)) {
        return SortedContains(cache_.Fetch(base_, v, at_v), u);
      }
    }
    return SortedContains(cache_.Fetch(base_, u, at_u), v);
  }

  /// True iff v's list is cached: reading it would fetch nothing.
  bool Holds(VertexId v) const { return cache_.Holds(v); }

  /// True once the distinct-fetch budget (if any) has been reached.
  bool BudgetExhausted() const { return cache_.BudgetExhausted(); }

  const CrawlStats& stats() const { return cache_.stats(); }
  /// The access this crawler fetches from.
  const HeldAccess<Base>& base() const { return base_; }

 private:
  // The one place queries happen.
  std::span<const VertexId> Fetch(VertexId v) const {
    return cache_.Fetch(base_, v);
  }

  HeldAccess<Base> base_;
  mutable CrawlCache cache_;
};

/// Crawl over an in-memory Graph.
using CrawlAccess = CrawlAccessT<Graph>;

}  // namespace grw
