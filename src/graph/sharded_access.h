// Budget-driven residency over a sharded graph (graph/sharding.h), and
// the out-of-core member of the static-dispatch access-policy family
// (graph/access.h).
//
// Two layers, mirroring the engine's sharing model:
//
//   ShardStore    — ONE per graph, thread-safe. Owns the manifest, one
//                   mapping per shard held for the store's lifetime, and
//                   an LRU of resident shards under a resident-byte
//                   budget. Residency is a flag plus a budget charge: a
//                   fault re-checks the held mapping's bytes and charges
//                   them, eviction only drops the pages (madvise) —
//                   nothing is re-opened or unmapped. Acquire(shard)
//                   returns a plain pointer that stays valid for the
//                   store's lifetime; a chain reading an evicted shard
//                   refaults its pages from disk (slower, never wrong).
//                   Counters land in ShardStats.
//   ShardedAccess — one per chain, NOT thread-safe, cheap. Mirrors the
//                   Graph read API (NumNodes/Degree/Neighbors/Neighbor/
//                   HasEdge) over a tiny MRU pin cache, so consecutive
//                   reads inside one shard touch no lock at all; only a
//                   shard *switch* goes back to the store.
//
// Every accessor returns byte-identical answers to the same read against
// the monolithic Graph — the CSR slices ARE the same arrays, partitioned
// — so estimates through ShardedAccess are bit-identical to full-access
// runs at any budget and any thread count (tests/sharded_engine_test.cpp
// gates this). The budget changes only WHEN pages are resident, never
// what they contain.
//
// Like a monolithic `.grwb` mapping, the held mappings read the shard
// generation that was opened: writers replace shards by rename, never by
// truncating in place, so a regenerated directory needs a new store.
// Each shard costs one mapping for the store's lifetime, so the kernel's
// per-process map limit (vm.max_map_count, 65530 by default) bounds the
// shard count per store.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/sharding.h"
#include "util/sync.h"

namespace grw {

/// Residency accounting, additive only in the sense of one store per
/// graph: the engine surfaces a snapshot in EngineResult.
struct ShardStats {
  /// Shard admissions (header re-validation + budget charge) — cold or
  /// re-faulted.
  uint64_t faults = 0;
  /// Acquire() calls answered by an already-resident shard.
  uint64_t hits = 0;
  /// Shards pushed out by the byte budget (pages madvised away).
  uint64_t evictions = 0;
  /// Mapped shard bytes currently charged against the budget.
  uint64_t resident_bytes = 0;
  /// High-water mark of resident_bytes over the store's lifetime.
  uint64_t peak_resident_bytes = 0;
  /// Shards currently resident.
  uint64_t resident_shards = 0;
  /// The configured budget (0 = unbounded), echoed for reporting.
  uint64_t budget_bytes = 0;

  double HitRate() const {
    const uint64_t total = hits + faults;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe shard residency manager. Non-movable (chains hold
/// pointers to it); construct once per graph and share by reference.
class ShardStore {
 public:
  struct Options {
    /// Resident-byte budget across all mapped shards; 0 = unbounded
    /// (every shard stays mapped once touched — the monolithic working
    /// set, arrived at lazily). A single shard larger than the budget
    /// is still admitted — the walk could not proceed otherwise — so
    /// the effective floor is max(budget, largest shard).
    uint64_t resident_budget_bytes = 0;
    /// Full payload verification (checksum + structural scan) on every
    /// shard fault, not just the first: the out-of-core analogue of
    /// OpenOptions::verify for a `.grwb`. Off by default — faults are
    /// the hot path.
    bool verify_on_fault = false;
  };

  /// Takes a validated manifest (LoadShardManifest). Eagerly maps and
  /// header-checks every shard once (catching missing/stale shards at
  /// open, like the monolithic loader's eager header validation), keeps
  /// the mappings for the store's lifetime and drops their pages: the
  /// store starts empty, nothing resident or charged to the budget.
  ShardStore(ShardManifest manifest, const Options& options);

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  VertexId NumNodes() const {
    return static_cast<VertexId>(manifest_.total_nodes);
  }
  uint64_t NumEdges() const { return manifest_.total_half_edges / 2; }
  uint32_t NumShards() const { return manifest_.NumShards(); }
  const ShardManifest& manifest() const { return manifest_; }

  /// The shard holding vertex v.
  uint32_t ShardOf(VertexId v) const { return manifest_.ShardOf(v); }

  /// Makes shard s resident and returns it. The pointer stays valid and
  /// readable for the store's lifetime, across later evictions; the
  /// store merely stops charging evicted shards to its budget and drops
  /// their pages. A fault (s not resident) re-runs CheckShardBytes on
  /// the held mapping and throws SnapshotCorruptError, leaving s
  /// non-resident, if the shard was damaged since it was opened.
  const MappedShard* Acquire(uint32_t s) const GRW_EXCLUDES(mu_);

  /// True iff shard s is currently resident (tests).
  bool Resident(uint32_t s) const GRW_EXCLUDES(mu_);

  ShardStats stats() const GRW_EXCLUDES(mu_);
  const Options& options() const { return options_; }

 private:
  void EvictOverBudgetLocked(uint32_t keep) const GRW_REQUIRES(mu_);
  // LRU list edits: take s out of the list / insert it as most recent.
  void Unlink(uint32_t s) const GRW_REQUIRES(mu_);
  void PushFront(uint32_t s) const GRW_REQUIRES(mu_);

  const ShardManifest manifest_;
  const Options options_;
  // Every shard, mapped once at open; never resized, so pointers into it
  // stay valid for the store's lifetime.
  const std::vector<MappedShard> shards_;

  // LRU over resident shards, CrawlAccess-style intrusive lists indexed
  // by shard id (kNone = list end).
  static constexpr uint32_t kNone = 0xFFFFFFFFu;
  mutable Mutex mu_;
  mutable std::vector<bool> resident_ GRW_GUARDED_BY(mu_);
  mutable std::vector<uint32_t> prev_ GRW_GUARDED_BY(mu_);
  mutable std::vector<uint32_t> next_ GRW_GUARDED_BY(mu_);
  mutable uint32_t head_ GRW_GUARDED_BY(mu_) = kNone;  // most recent
  mutable uint32_t tail_ GRW_GUARDED_BY(mu_) = kNone;  // least recent
  mutable ShardStats stats_ GRW_GUARDED_BY(mu_);
};

/// Per-chain read facade over a ShardStore, shaped exactly like Graph's
/// read API so the templated estimation stack (walkers, sample window,
/// CSS, estimator) accepts it via static dispatch. NOT thread-safe: one
/// instance per chain, like CrawlAccess. Holds up to kPins shard pointers
/// in MRU order; the common case — every read of a G(d) step landing in
/// the walker's current shard(s) — is a couple of range compares, no
/// lock.
class ShardedAccess {
 public:
  explicit ShardedAccess(const ShardStore& store) : store_(&store) {}

  VertexId NumNodes() const { return store_->NumNodes(); }
  uint64_t NumEdges() const { return store_->NumEdges(); }

  uint32_t Degree(VertexId v) const { return Shard(v).Degree(v); }

  /// Sorted neighbors of v (global ids). The span stays valid for the
  /// store's lifetime; its pages may be dropped by an eviction and
  /// refault on the next read.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return Shard(v).Neighbors(v);
  }

  VertexId Neighbor(VertexId v, uint32_t i) const {
    return Shard(v).Neighbors(v)[i];
  }

  /// Binary search over the lower-degree endpoint's list — the same
  /// tie-breaking as Graph::HasEdgeBinarySearch, and the same boolean
  /// as Graph::HasEdge for every input.
  bool HasEdge(VertexId u, VertexId v) const {
    if (Degree(u) > Degree(v)) std::swap(u, v);
    const std::span<const VertexId> list = Neighbors(u);
    return std::binary_search(list.begin(), list.end(), v);
  }

 private:
  static constexpr int kPins = 4;

  const MappedShard& Shard(VertexId v) const {
    // MRU scan: slot 0 is the hottest (the walker's current shard).
    for (int i = 0; i < kPins; ++i) {
      const MappedShard* shard = pins_[i];
      if (shard != nullptr && v >= shard->first_node() &&
          v < shard->end_node()) {
        if (i != 0) Promote(i);
        return *shard;
      }
    }
    return Miss(v);
  }

  void Promote(int i) const {
    const MappedShard* hit = pins_[i];
    for (int j = i; j > 0; --j) pins_[j] = pins_[j - 1];
    pins_[0] = hit;
  }

  // Cold path, out of line: ask the store, install at slot 0.
  const MappedShard& Miss(VertexId v) const;

  const ShardStore* store_;
  mutable const MappedShard* pins_[kPins] = {};
};

}  // namespace grw
