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

#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/mapped_file.h"
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
/// side effects and the order of reads across chains cannot matter, so
/// the estimator prefetches through it and the engine steps a thread's
/// chains as one interleaved group (core/estimator.h RunGroup). The
/// other members count every read in caches whose contents depend on
/// read order, so they get neither.
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

/// Allocator for CrawlAccess's per-node and per-slot tables: every block
/// is its own mapping (MapPages, graph/mapped_file.h), unmapped on
/// release. An engine answer builds one crawler per chain, each with
/// tables sized by the graph (1 MiB of slots at 250k nodes), and frees
/// them all when it returns. Through malloc, the first frees raise
/// glibc's mmap threshold, later tables land in per-thread arenas, and
/// answer-to-answer churn fragments them: peak RSS of a 16-chain crawl
/// PSRW run on a 250k-node graph varied by up to a third between
/// identical runs.
template <class T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) noexcept {}
  T* allocate(size_t n) { return static_cast<T*>(MapPages(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { UnmapPages(p, n * sizeof(T)); }
  friend bool operator==(PageAllocator, PageAllocator) { return true; }
};

template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

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
class CrawlCache {
 public:
  /// `fail_seed` seeds the failure model's private RNG stream.
  CrawlCache(VertexId num_nodes, const CrawlOptions& options,
             uint64_t fail_seed = 0);

  /// True iff v's list is cached (a read of it would be a hit).
  bool Holds(VertexId v) const { return slot_of_[v] != kNoSlot; }

  /// Reads v's list from `base` through the cache: a hit touches the
  /// LRU; a miss is a counted API fetch that inserts v, evicting the
  /// least-recently-used list when at capacity.
  template <class Base>
  std::span<const VertexId> Fetch(const Base& base, VertexId v) {
    const uint32_t slot = slot_of_[v];
    if (slot != kNoSlot) {
      ++stats_.cache_hits;
      // Recency order only matters if something can ever be evicted; the
      // unbounded cache skips the list surgery on this hottest path.
      if (!never_evicts_ && head_ != slot) {
        Unlink(slot);
        PushFront(slot);
      }
      return base.Neighbors(v);
    }
    ++stats_.fetches;
    stats_.simulated_latency_us += opt_.latency_us;
    // Cold branch off the miss path; fail_prob == 0.0 (the default)
    // costs one predictable compare per miss. The chaos site is the
    // literal `false` in normal builds (see util/fault.h).
    if (opt_.failure.fail_prob > 0.0) SimulateTransientFailures();
    if (GRW_FAULT("crawl.fetch")) RecordInjectedFailure();
    const uint64_t bit = 1ULL << (v & 63u);
    if ((ever_fetched_[v >> 6] & bit) == 0) {
      ever_fetched_[v >> 6] |= bit;
      ++stats_.distinct_fetches;
    }
    uint32_t s;
    if (used_ < capacity_) {
      s = used_++;
    } else {
      s = tail_;
      Unlink(s);
      slot_of_[node_of_[s]] = kNoSlot;
      ++stats_.evictions;
    }
    node_of_[s] = v;
    slot_of_[v] = s;
    PushFront(s);
    return base.Neighbors(v);
  }

  /// True once the distinct-fetch budget (if any) has been reached.
  bool BudgetExhausted() const {
    return opt_.query_budget > 0 &&
           stats_.distinct_fetches >= opt_.query_budget;
  }

  const CrawlStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  // Rolls the failure model for one API fetch: draws per-attempt
  // failures from the private failure RNG, charging retries, backoff
  // waits and (past the retry budget) one giveup to stats_. Cold path,
  // defined in access.cpp.
  void SimulateTransientFailures();
  // Books one chaos-injected transient failure + successful retry.
  void RecordInjectedFailure();

  void Unlink(uint32_t slot) {
    const uint32_t p = prev_[slot];
    const uint32_t n = next_[slot];
    if (p != kNoSlot) next_[p] = n; else head_ = n;
    if (n != kNoSlot) prev_[n] = p; else tail_ = p;
  }

  void PushFront(uint32_t slot) {
    prev_[slot] = kNoSlot;
    next_[slot] = head_;
    if (head_ != kNoSlot) prev_[head_] = slot; else tail_ = slot;
    head_ = slot;
  }

  CrawlOptions opt_;
  uint32_t capacity_;
  bool never_evicts_ = false;  // capacity_ covers every node
  CrawlStats stats_;
  PageVector<uint32_t> slot_of_;       // node -> cache slot
  PageVector<VertexId> node_of_;       // slot -> node
  PageVector<uint32_t> prev_, next_;   // LRU list over slots
  uint32_t head_ = kNoSlot;            // most recently used
  uint32_t tail_ = kNoSlot;            // least recently used
  uint32_t used_ = 0;
  PageVector<uint64_t> ever_fetched_;  // distinct-fetch bitset
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
    VertexId probe = u;
    VertexId other = v;
    if (!cache_.Holds(u) && cache_.Holds(v)) {
      probe = v;
      other = u;
    }
    return SortedContains(Fetch(probe), other);
  }

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
