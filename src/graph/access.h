// Graph access policies: the crawling setting of the paper as a *static*
// dispatch family.
//
// The paper's motivating scenario (Section 1): the graph is only reachable
// through OSN APIs that answer "give me v's friend list" at real cost per
// query. Everything the estimation stack reads from a graph goes through
// four accessors — Degree, Neighbors, Neighbor, HasEdge — so the stack
// (walkers, sample window, CSS weights, estimator) is templated on the
// access policy G:
//
//   FullAccess   = Graph itself. The template instantiated with Graph *is*
//                  the pre-policy code, byte for byte: zero wrapper, zero
//                  overhead, bit-identical estimates (asserted in tests and
//                  gated in CI by bench_access --check-identical).
//   CrawlAccess  = crawl semantics over an in-memory Graph backend: every
//                  read is served from a bounded LRU cache of fetched
//                  neighbor lists; a miss is one API call (counted, and
//                  optionally charged a simulated latency); distinct-node
//                  fetches are tracked separately from re-fetches of
//                  evicted nodes so the paper's cost model (distinct
//                  queries) and the real network cost (all fetches) are
//                  both observable. An optional query budget marks the
//                  access as exhausted, which the estimator's run loop
//                  checks — the check compiles away entirely for
//                  FullAccess.

#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/fault.h"
#include "util/rng.h"

namespace grw {

/// The zero-overhead end of the policy family: full access *is* the graph.
/// Components templated on the access type and instantiated with Graph
/// compile to exactly the code they had before the policy existed.
using FullAccess = Graph;

/// Whether access policy G carries a distinct-query budget its run loop
/// must poll (CrawlAccess does). For Graph this is false and every budget
/// check guarded by it compiles away.
template <class G>
constexpr bool kAccessHasQueryBudget = requires(const G& g) {
  { g.BudgetExhausted() } -> std::convertible_to<bool>;
};

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

/// Maps `bytes` of zeroed private memory straight from the OS (throws
/// std::bad_alloc on failure); UnmapPages gives it back.
void* MapPages(size_t bytes);
void UnmapPages(void* p, size_t bytes) noexcept;

/// Allocator for CrawlAccess's per-node and per-slot tables: every block
/// is its own mapping, unmapped on release. An engine answer builds one
/// crawler per chain, each with tables sized by the graph (1 MiB of slots
/// at 250k nodes), and frees them all when it returns. Through malloc,
/// the first frees raise glibc's mmap threshold, later tables land in
/// per-thread arenas, and answer-to-answer churn fragments them: peak RSS
/// of a 16-chain crawl PSRW run on a 250k-node graph varied by up to a
/// third between identical runs.
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

/// Neighbor-list-only crawl view of a Graph with per-query accounting and
/// a bounded LRU neighbor cache.
///
/// NOT thread-safe: one instance per chain/crawler (the engine gives every
/// chain its own). The read API mirrors Graph's, so any component
/// templated on the access policy accepts either. All reads are const;
/// cache and counters are mutable interior state, exactly like a real
/// crawler's local storage.
class CrawlAccess {
 public:
  struct Options {
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
    /// drawn from the failure RNG. Like latency_us this is a COST
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
      /// giveup).
      double backoff_base_us = 1000.0;
      /// Seed of the PRIVATE failure RNG stream. The engine derives one
      /// per chain from the chain's global index, so failure schedules
      /// replay exactly at any thread count; the walk RNG is never
      /// consumed (consuming it would perturb the walk itself).
      uint64_t seed = 0;
    };
    FailureModel failure;
  };

  CrawlAccess(const Graph& g, const Options& options);

  /// Number of nodes/edges. NOT available through real crawl APIs;
  /// exposed for walk seeding and constructor validation in simulations.
  VertexId NumNodes() const { return g_->NumNodes(); }
  uint64_t NumEdges() const { return g_->NumEdges(); }

  /// Degree of v. Revealed by v's neighbor list: fetches v on a miss.
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(Fetch(v).size());
  }

  /// Full friend list of v (sorted), fetching on a miss.
  std::span<const VertexId> Neighbors(VertexId v) const { return Fetch(v); }

  /// The i-th neighbor of v (0-based, sorted order).
  VertexId Neighbor(VertexId v, uint32_t i) const { return Fetch(v)[i]; }

  /// Adjacency test, answered client-side by searching a fetched friend
  /// list: free (a cache hit) when either endpoint's list is cached,
  /// otherwise one API call for u's list. Identical result to
  /// Graph::HasEdge for every input.
  bool HasEdge(VertexId u, VertexId v) const {
    VertexId probe = u;
    VertexId other = v;
    if (slot_of_[u] == kNoSlot && slot_of_[v] != kNoSlot) {
      probe = v;
      other = u;
    }
    const std::span<const VertexId> list = Fetch(probe);
    return std::binary_search(list.begin(), list.end(), other);
  }

  /// True iff v's neighbor list is currently in the cache (tests).
  bool Cached(VertexId v) const { return slot_of_[v] != kNoSlot; }

  /// True once the distinct-fetch budget (if any) has been reached.
  bool BudgetExhausted() const {
    return opt_.query_budget > 0 &&
           stats_.distinct_fetches >= opt_.query_budget;
  }

  const CrawlStats& stats() const { return stats_; }
  /// Effective LRU capacity after clamping (0/oversize -> NumNodes()).
  uint32_t CacheCapacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  // Rolls the failure model for one API fetch: draws per-attempt
  // failures from the private failure RNG, charging retries, backoff
  // waits and (past the retry budget) one giveup to stats_. Cold path,
  // defined in access.cpp.
  void SimulateTransientFailures() const;
  // Books one chaos-injected transient failure + successful retry.
  void RecordInjectedFailure() const;

  // The one place queries happen: serves v's list from the cache (LRU
  // touch) or issues a counted API fetch and inserts it, evicting the
  // least-recently-used list when at capacity.
  std::span<const VertexId> Fetch(VertexId v) const {
    const uint32_t slot = slot_of_[v];
    if (slot != kNoSlot) {
      ++stats_.cache_hits;
      // Recency order only matters if something can ever be evicted; the
      // unbounded cache skips the list surgery on this hottest path.
      if (!never_evicts_ && head_ != slot) {
        Unlink(slot);
        PushFront(slot);
      }
      return g_->Neighbors(v);
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
    return g_->Neighbors(v);
  }

  void Unlink(uint32_t slot) const {
    const uint32_t p = prev_[slot];
    const uint32_t n = next_[slot];
    if (p != kNoSlot) next_[p] = n; else head_ = n;
    if (n != kNoSlot) prev_[n] = p; else tail_ = p;
  }

  void PushFront(uint32_t slot) const {
    prev_[slot] = kNoSlot;
    next_[slot] = head_;
    if (head_ != kNoSlot) prev_[head_] = slot; else tail_ = slot;
    head_ = slot;
  }

  const Graph* g_;
  Options opt_;
  uint32_t capacity_;
  bool never_evicts_ = false;  // capacity_ covers every node
  mutable CrawlStats stats_;
  mutable PageVector<uint32_t> slot_of_;       // node -> cache slot
  mutable PageVector<VertexId> node_of_;       // slot -> node
  mutable PageVector<uint32_t> prev_, next_;   // LRU list over slots
  mutable uint32_t head_ = kNoSlot;            // most recently used
  mutable uint32_t tail_ = kNoSlot;            // least recently used
  mutable uint32_t used_ = 0;
  mutable PageVector<uint64_t> ever_fetched_;  // distinct-fetch bitset
  // Private stream for the failure model.
  mutable Rng fail_rng_;
};

}  // namespace grw
