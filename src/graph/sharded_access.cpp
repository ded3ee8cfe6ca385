#include "graph/sharded_access.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace grw {

namespace {

// The longest list any row may claim: bucket b of the manifest's degree
// histogram holds degrees of bit-width b.
uint64_t MaxDegree(const ShardManifest& manifest) {
  for (int b = kDegreeHistogramBuckets - 1; b > 0; --b) {
    if (manifest.degree_histogram[b] > 0) return (uint64_t{1} << b) - 1;
  }
  return 0;
}

// ShardStore::open_bytes().
uint64_t OpenBytes(const ShardManifest& manifest) {
  const uint64_t page = PageBytes();
  uint64_t bytes = 0;
  for (const ShardInfo& shard : manifest.shards) {
    const uint64_t end =
        snapshot::kHeaderBytes + (shard.num_rows + 1) * sizeof(uint64_t);
    bytes += (end + page - 1) / page * page;
  }
  return bytes;
}

// Ring offsets are 32-bit words.
constexpr uint64_t kMaxRingWords = uint64_t{1} << 31;

// A reader adds its counters to the store's every this many faults, not
// on each: the store's counters share one cache line.
constexpr uint64_t kPublishEvery = 64;

// Ring words a cache needs so that making room never reaches its kept
// lists: those lists, the one being inserted and the space a wrap can
// waste, all at the longest entry `longest`.
uint64_t FloorWords(uint64_t longest) {
  return (ShardedAccess::kKeptLists + 2) * longest;
}

template <class T>
std::unique_ptr<T[], PageUnmapper> MapArray(uint64_t bytes) {
  return {static_cast<T*>(MapPages(bytes)), PageUnmapper{bytes}};
}

}  // namespace

ShardStore::ShardStore(ShardManifest manifest, const Options& options)
    : manifest_(std::move(manifest)),
      options_(options),
      shards_(MapAllShards(manifest_)),
      open_bytes_(OpenBytes(manifest_)) {
  Charge(open_bytes_);
  max_degree_ = MaxDegree(manifest_);
  const uint64_t page = PageBytes();
  const uint64_t words = FloorWords(ShardedAccess::kEntryHeader + max_degree_);
  ring_bytes_ = (words * sizeof(uint32_t) + page - 1) / page * page;
  if (ring_bytes_ / sizeof(uint32_t) > kMaxRingWords) {
    throw std::invalid_argument(
        "ShardStore: degree " + std::to_string(max_degree_) +
        " is too large for a shard store's list cache");
  }
  // Twice as many slots as the ring holds entries of the mean list, and
  // at least a page of them: a power of two.
  const uint64_t mean_words =
      ShardedAccess::kEntryHeader +
      manifest_.total_half_edges / std::max<uint64_t>(manifest_.total_nodes, 1);
  const uint64_t slots = std::bit_ceil(std::max<uint64_t>(
      2 * ring_bytes_ / sizeof(uint32_t) / mean_words,
      page / sizeof(ShardedAccess::Slot)));
  index_bytes_ = slots * sizeof(ShardedAccess::Slot);
}

const MappedShard& ShardStore::Recheck(uint32_t s) const {
  CheckShardBytes(manifest_, s, shards_[s].file(), /*verify_checksum=*/false);
  return shards_[s];
}

const MappedShard* ShardStore::Acquire(uint32_t s) const {
  const MappedShard& shard = Recheck(s);
  counters_.faults.fetch_add(1, std::memory_order_relaxed);
  return &shard;
}

void ShardStore::Charge(uint64_t bytes) const {
  const uint64_t now =
      counters_.charged.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = counters_.peak.load(std::memory_order_relaxed);
  while (peak < now && !counters_.peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void ShardStore::Release(uint64_t bytes) const {
  counters_.charged.fetch_sub(bytes, std::memory_order_relaxed);
}

void ShardStore::Publish(const ShardStats& delta) const {
  counters_.faults.fetch_add(delta.faults, std::memory_order_relaxed);
  counters_.hits.fetch_add(delta.hits, std::memory_order_relaxed);
  counters_.evictions.fetch_add(delta.evictions, std::memory_order_relaxed);
}

ShardStats ShardStore::stats() const {
  ShardStats s;
  s.faults = counters_.faults.load(std::memory_order_relaxed);
  s.hits = counters_.hits.load(std::memory_order_relaxed);
  s.evictions = counters_.evictions.load(std::memory_order_relaxed);
  s.resident_bytes = counters_.charged.load(std::memory_order_relaxed);
  s.peak_resident_bytes = counters_.peak.load(std::memory_order_relaxed);
  s.budget_bytes = options_.resident_budget_bytes;
  return s;
}

// ------------------------------------------------------------ reader --

ShardedAccess::ShardedAccess(const ShardStore& store) : store_(&store) {
  Cache& c = cache_;
  store.Charge(store.ring_bytes_ + store.index_bytes_);
  try {
    c.arena = MapArray<uint32_t>(store.ring_bytes_);
    c.index = MapArray<Slot>(store.index_bytes_);
  } catch (...) {
    store.Release(store.ring_bytes_ + store.index_bytes_);
    throw;
  }
  const uint64_t slots = store.index_bytes_ / sizeof(Slot);
  c.capacity = static_cast<uint32_t>(store.ring_bytes_ / sizeof(uint32_t));
  c.mask = static_cast<uint32_t>(slots - 1);
  c.shift = 32 - static_cast<uint32_t>(std::countr_zero(slots));
}

ShardedAccess::ShardedAccess(ShardedAccess&& other) noexcept
    : store_(std::exchange(other.store_, nullptr)),
      cache_(std::move(other.cache_)),
      reads_(other.reads_),
      own_(other.own_),
      published_(other.published_) {}

ShardedAccess::~ShardedAccess() {
  if (store_ == nullptr) return;  // moved from
  Publish();
  store_->Release(cache_.bytes());
}

ShardStats ShardedAccess::stats() const {
  ShardStats s = own_;
  s.hits = reads_ - own_.faults;
  s.peak_resident_bytes = cache_.bytes();
  return s;
}

void ShardedAccess::Publish() const {
  const ShardStats now = stats();
  ShardStats delta;
  delta.faults = now.faults - published_.faults;
  delta.hits = now.hits - published_.hits;
  delta.evictions = now.evictions - published_.evictions;
  store_->Publish(delta);
  published_ = now;
}

std::span<const VertexId> ShardedAccess::Miss(VertexId v) const {
  const MappedShard& shard = store_->Recheck(store_->manifest().ShardOf(v));
  const MappedShard::Row row =
      shard.ReadRow(store_->manifest(), v, store_->max_degree_);
  shard.ReadList(store_->manifest(), row, Reserve(row.degree));
  ++reads_;
  // The store's totals lag by under kPublishEvery faults while the
  // reader lives: its destructor publishes the rest.
  if (++own_.faults % kPublishEvery == 0) Publish();
  return Commit(v, row.degree);
}

std::span<const VertexId> ShardedAccess::Renew(uint32_t slot) const {
  // A hit on an old entry: copy it to the head, where the next
  // kHeldReads reads cannot evict it. Unindexed first, so that making
  // room may drop the old copy without counting an eviction; its words
  // stay intact until the copy below overwrites them.
  const uint32_t* entry = cache_.arena.get() + cache_.index[slot].at;
  const VertexId v = entry[0];
  const uint32_t degree = entry[1];
  Unindex(slot);
  VertexId* list = Reserve(degree);
  std::memmove(list, entry + kEntryHeader, degree * sizeof(VertexId));
  ++reads_;
  return Commit(v, degree);
}

VertexId* ShardedAccess::Reserve(uint32_t degree) const {
  // At most half the index slots in use, then room for the entry at the
  // head: the oldest lists go, never a kept one (EvictOldest checks).
  Cache& c = cache_;
  while (c.entries >= (c.mask + 1) / 2) EvictOldest();
  while (!Fits(kEntryHeader + degree)) EvictOldest();
  return c.arena.get() + c.head + kEntryHeader;
}

bool ShardedAccess::Fits(uint32_t words) const {
  Cache& c = cache_;
  if (c.entries == 0) {
    c.head = c.tail = 0;
    c.wrap = kNoWrap;
    return c.capacity >= words;
  }
  if (c.wrap != kNoWrap) return c.tail - c.head >= words;
  if (c.capacity - c.head >= words) return true;
  if (c.tail < words) return false;
  c.wrap = c.head;  // skip the ring's end; continue at its start
  c.head = 0;
  return true;
}

std::span<const VertexId> ShardedAccess::Commit(VertexId v,
                                                uint32_t degree) const {
  Cache& c = cache_;
  uint32_t* entry = c.arena.get() + c.head;
  entry[0] = v;
  entry[1] = degree;
  entry[2] = ++c.stamp;
  uint32_t i = Home(c, v);
  while (c.index[i].key != 0) i = (i + 1) & c.mask;
  c.index[i] = {v + 1, c.head};
  c.head += kEntryHeader + degree;
  ++c.entries;
  return {entry + kEntryHeader, degree};
}

void ShardedAccess::EvictOldest() const {
  Cache& c = cache_;
  // The store sized the ring and index so that neither runs out of room
  // while they hold no more than the kept lists.
  assert(c.entries > kKeptLists && "eviction reached a kept list");
  const uint32_t* entry = c.arena.get() + c.tail;
  const VertexId v = entry[0];
  // Only the indexed copy of a list is an eviction; a copy Renew left
  // behind is just space.
  for (uint32_t i = Home(c, v); c.index[i].key != 0;
       i = (i + 1) & c.mask) {
    if (c.index[i].key == v + 1) {
      if (c.index[i].at == c.tail) {
        Unindex(i);
        ++own_.evictions;
      }
      break;
    }
  }
  c.tail += kEntryHeader + entry[1];
  if (c.tail == c.wrap) {
    c.tail = 0;
    c.wrap = kNoWrap;
  }
  --c.entries;
}

void ShardedAccess::Unindex(uint32_t slot) const {
  // Backward-shift deletion: pull later entries of the probe run into
  // the hole unless that would move one before its home slot.
  Cache& c = cache_;
  for (uint32_t j = (slot + 1) & c.mask; c.index[j].key != 0;
       j = (j + 1) & c.mask) {
    const uint32_t home = Home(c, c.index[j].key - 1);
    if (((j - home) & c.mask) >= ((j - slot) & c.mask)) {
      c.index[slot] = c.index[j];
      slot = j;
    }
  }
  c.index[slot] = {0, 0};
}

}  // namespace grw
