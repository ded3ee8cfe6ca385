// Out-of-core reads of a sharded graph (graph/sharding.h), and the
// storage member of the static-dispatch access-policy family
// (graph/access.h), for sharded graphs opened with a resident budget
// (without one, GraphSource::Open copies them into a Graph).
//
//   ShardStore    — ONE per graph, thread-safe, lock-free. Maps and checks
//                   every shard once, at open, and keeps the mappings and
//                   their descriptors, the cache size it computed, the
//                   budget and the counters (ShardStats) for its lifetime.
//   ShardedAccess — one per chain, NOT thread-safe. Mirrors the Graph
//                   read API (NumNodes/Degree/Neighbors/Neighbor/HasEdge).
//
// A reader reads through a neighbor-list cache it owns. A miss reads the
// row's offsets pair from the held mapping, then the list with one
// pread(2) through the shard's descriptor into a FIFO ring on the heap;
// no page of a neighbors slice is mapped in. Before every miss the store
// compares the shard's mapped header with the bytes it validated at open
// and re-reads the first and last offset (MappedShard::CheckUnchanged),
// and the reader bounds-checks the offsets pair and the ids it read: a
// shard damaged after open fails with SnapshotCorruptError instead of
// reading out of bounds.
//
// The budget's value changes nothing (0 is no ceiling): every reader's
// cache has one fixed size, computed from the manifest when the store
// opens. (The budget is only the ceiling that a store-wide list tier
// will spend; such a tier must bring its own accounting.) A cache's ring
// and index are arrays the reader allocates when it is made and frees
// when it is destroyed. The store keeps no ledger of them: a run's
// memory is its readers' cache bytes plus the store's open_bytes
// (EngineResult::shards). The ring holds kKeptLists + 2
// entries of the longest list the manifest allows, so making room — the
// cache evicts its own oldest list while its index is half full or the
// next list does not fit — never reaches the newest kKeptLists lists. A
// span a reader returns stays valid for at least the next kHeldReads
// reads — the G(d) merge holds up to d - 1 lists at once — because a hit
// on a list older than the last kRecentLists insertions first copies it
// to the ring's head.
//
// Every accessor returns byte-identical answers to the same read against
// the monolithic Graph — the CSR slices ARE the same arrays, partitioned
// — so estimates through ShardedAccess are bit-identical to full-access
// runs at any budget and any thread count (tests/conformance_test.cpp
// gates this).
//
// Like a monolithic `.grwb` mapping, the held mappings read the shard
// generation that was opened: writers replace shards by rename, never by
// truncating in place, so a regenerated directory needs a new store. A
// shard truncated in place after open is outside that contract. Cut
// inside its neighbors slice, a miss on a list past the cut throws
// SnapshotCorruptError ("truncated after open"); cut into its header or
// offsets region, a read of the mapping past the file's end faults
// (SIGBUS) — the per-miss re-check reads the header and the last offset
// through the mapping already, so reading the offsets pair there adds no
// new way to fault.
// Each shard costs one mapping and one descriptor for the store's
// lifetime, so vm.max_map_count (65530 by default) and the open-file
// limit (ulimit -n) bound the shard count per store.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/sharding.h"
#include "graphlet/catalog.h"

namespace grw {

/// Shard-store accounting. ShardStore::stats() reports the store's
/// lifetime read counters; an engine run reports its own readers'
/// (EngineResult::shards). A live reader adds its faults, hits and
/// evictions to the store's totals every 64 faults and when it is
/// destroyed, so the store's totals lag behind its live readers.
struct ShardStats {
  /// Reads that reached a shard file: a cache miss or an Acquire() that
  /// re-checked a shard.
  uint64_t faults = 0;
  /// Reads answered from a reader's cache.
  uint64_t hits = 0;
  /// Lists dropped from reader caches to make room.
  uint64_t evictions = 0;
  /// Per run and per reader only (0 in ShardStore::stats()): a reader's
  /// cache bytes; a run's readers' caches plus ShardStore::open_bytes.
  uint64_t peak_resident_bytes = 0;
  /// The configured budget (0 = no ceiling), echoed for reporting.
  uint64_t budget_bytes = 0;

  double HitRate() const {
    const uint64_t total = hits + faults;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe shard store. Non-movable (readers hold pointers to it);
/// construct once per graph and share by reference.
class ShardStore {
 public:
  struct Options {
    /// The ceiling a store-wide list tier will spend (0 = none); reader
    /// caches have one fixed size whatever it is. ShardStats::budget_bytes.
    uint64_t resident_budget_bytes = 0;
  };

  /// Takes a validated manifest (LoadShardManifest). Eagerly maps and
  /// header-checks every shard once (catching missing/stale shards at
  /// open, like the monolithic loader's eager header validation), and
  /// keeps the mappings and their descriptors for the store's lifetime.
  /// Throws std::invalid_argument if a reader's ring would not fit 32-bit
  /// offsets (a degree over ~2^27).
  ShardStore(ShardManifest manifest, const Options& options);

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  VertexId NumNodes() const {
    return static_cast<VertexId>(manifest_.total_nodes);
  }
  uint64_t NumEdges() const { return manifest_.total_half_edges / 2; }
  uint32_t NumShards() const { return manifest_.NumShards(); }
  const ShardManifest& manifest() const { return manifest_; }

  /// Re-validates shard s and counts a fault; the pointer stays valid for
  /// the store's lifetime. Throws SnapshotCorruptError, counting nothing,
  /// if the shard was damaged since it was opened.
  const MappedShard* Acquire(uint32_t s) const;

  ShardStats stats() const;
  const Options& options() const { return options_; }
  /// What every run reads through for the store's lifetime: every
  /// shard's header and offsets pages, page-rounded.
  uint64_t open_bytes() const { return open_bytes_; }

 private:
  friend class ShardedAccess;

  // Checks shard s is unchanged since open, then returns it.
  const MappedShard& Recheck(uint32_t s) const;
  // Adds a reader's counters to the store's totals.
  void Publish(const ShardStats& delta) const;

  const ShardManifest manifest_;
  const Options options_;
  // Every shard, mapped once at open; never resized.
  const std::vector<MappedShard> shards_;
  const uint64_t open_bytes_;
  // Readers' cache, fixed at open: the longest list any row may claim
  // (from the manifest's degree histogram), and the bytes of every
  // reader's ring and index.
  uint64_t max_degree_ = 0;
  uint64_t ring_bytes_ = 0;
  uint64_t index_bytes_ = 0;

  // Written by readers' publishes and by Acquire; on its own cache line
  // so the read-only fields above never bounce.
  struct alignas(64) Counters {
    std::atomic<uint64_t> faults{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> evictions{0};
  };
  mutable Counters counters_;
};

/// Per-chain read facade over a ShardStore, shaped exactly like Graph's
/// read API so the templated estimation stack (walkers, sample window,
/// CSS, estimator) accepts it via static dispatch. NOT thread-safe: one
/// instance per chain, like CrawlAccess. Move-only: a reader owns its
/// cache until destroyed.
class ShardedAccess {
 public:
  /// Reads a returned span survives.
  static constexpr uint32_t kHeldReads = kMaxGraphletSize;
  /// A hit returns the cached list in place only if it is among the
  /// newest kRecentLists insertions; an older one is copied first.
  static constexpr uint32_t kRecentLists = kHeldReads + 1;
  /// Lists an insertion never evicts: every span of the last kHeldReads
  /// reads is among them.
  static constexpr uint32_t kKeptLists = kRecentLists + kHeldReads - 1;
  /// Words of a cache entry ahead of its list: vertex, degree, stamp.
  static constexpr uint32_t kEntryHeader = 3;

  /// Allocates the cache at the store's fixed size.
  explicit ShardedAccess(const ShardStore& store);
  ShardedAccess(ShardedAccess&& other) noexcept;
  ShardedAccess(const ShardedAccess&) = delete;
  ShardedAccess& operator=(const ShardedAccess&) = delete;
  ShardedAccess& operator=(ShardedAccess&&) = delete;
  /// Adds its unpublished counters to the store's.
  ~ShardedAccess();

  VertexId NumNodes() const { return store_->NumNodes(); }
  uint64_t NumEdges() const { return store_->NumEdges(); }

  /// A miss caches v's whole list, because walks usually read a new
  /// node's list right after its degree. Answering Degree from the
  /// offsets pair in the mapping, with no system call and no list cached,
  /// still lost on the e2e sharded-half workload (seed 7): 400-419k
  /// against 453-467k steps per CPU second (4-core x86 VM).
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(Neighbors(v).size());
  }

  /// Sorted neighbors of v (global ids). The span stays valid across at
  /// least the next kHeldReads reads.
  std::span<const VertexId> Neighbors(VertexId v) const {
    const uint32_t slot = Find(v);
    if (slot == kNoSlot) return Miss(v);
    const uint32_t* entry = cache_.arena.get() + cache_.index[slot].at;
    if (cache_.stamp - entry[2] >= kRecentLists) return Renew(slot);
    ++reads_;
    return {entry + kEntryHeader, entry[1]};
  }

  VertexId Neighbor(VertexId v, uint32_t i) const { return Neighbors(v)[i]; }

  /// SortedContains over the lower-degree endpoint's list — the same
  /// tie-breaking as Graph::HasEdgeBinarySearch, and the same boolean
  /// as Graph::HasEdge for every input.
  bool HasEdge(VertexId u, VertexId v) const {
    if (Degree(u) > Degree(v)) std::swap(u, v);
    return SortedContains(Neighbors(u), v);
  }

  /// This reader's counters: faults, hits, evictions, and the bytes of
  /// its cache as peak_resident_bytes.
  ShardStats stats() const;

 private:
  friend class ShardStore;  // sizes the index in Slots

  // An index slot: key = vertex + 1 (0 = empty), at = the entry's word
  // offset in the ring.
  struct Slot {
    uint32_t key;
    uint32_t at;
  };
  static constexpr uint32_t kNoWrap = 0xFFFFFFFFu;
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  // The cache: a FIFO ring of entries [vertex, degree, stamp,
  // list...] in `arena`, found through a linear-probing `index`. Live
  // entries sit in [tail, head), or [tail, wrap) then [0, head) once the
  // ring has wrapped.
  struct Cache {
    std::unique_ptr<uint32_t[]> arena;
    std::unique_ptr<Slot[]> index;
    uint32_t capacity = 0;  // ring words
    uint32_t mask = 0;      // index slots - 1
    uint32_t shift = 0;     // 32 - log2(index slots)
    uint32_t head = 0;
    uint32_t tail = 0;
    uint32_t wrap = kNoWrap;
    uint32_t entries = 0;  // in the ring, including unindexed copies
    uint32_t stamp = 0;    // insertions so far
  };
  static uint32_t Home(const Cache& c, VertexId v) {
    return (v * 0x9E3779B1u) >> c.shift;
  }
  // The index slot holding v, or kNoSlot.
  uint32_t Find(VertexId v) const {
    for (uint32_t i = Home(cache_, v);; i = (i + 1) & cache_.mask) {
      const uint32_t key = cache_.index[i].key;
      if (key == v + 1) return i;
      if (key == 0) return kNoSlot;
    }
  }

  // Cold paths, out of line.
  std::span<const VertexId> Miss(VertexId v) const;
  std::span<const VertexId> Renew(uint32_t slot) const;
  // Makes room for a list of `degree` ids at the ring's head and returns
  // where it goes; Commit then indexes it.
  VertexId* Reserve(uint32_t degree) const;
  std::span<const VertexId> Commit(VertexId v, uint32_t degree) const;
  bool Fits(uint32_t words) const;
  void EvictOldest() const;
  void Unindex(uint32_t slot) const;
  void Publish() const;

  const ShardStore* store_;
  mutable Cache cache_;
  mutable uint64_t reads_ = 0;
  mutable ShardStats own_;        // faults and evictions
  mutable ShardStats published_;  // what the store has seen of them
};

}  // namespace grw
