#include "graph/sharded_access.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace grw {

namespace {

// Catch missing files, torn shards and stale manifests at open time —
// the store's analogue of the monolithic loader's eager header
// validation — instead of minutes into a walk.
std::vector<MappedShard> MapAllShards(const ShardManifest& manifest,
                                      bool keep_descriptors) {
  std::vector<MappedShard> shards;
  shards.reserve(manifest.NumShards());
  for (uint32_t s = 0; s < manifest.NumShards(); ++s) {
    shards.push_back(MapShard(manifest, s, /*verify_checksum=*/false,
                              keep_descriptors));
  }
  return shards;
}

// The longest list any row may claim: bucket b of the manifest's degree
// histogram holds degrees of bit-width b.
uint64_t MaxDegree(const ShardManifest& manifest) {
  for (int b = kDegreeHistogramBuckets - 1; b > 0; --b) {
    if (manifest.degree_histogram[b] > 0) return (uint64_t{1} << b) - 1;
  }
  return 0;
}

// Ring offsets are 32-bit words.
constexpr uint64_t kMaxRingWords = uint64_t{1} << 31;

// A bounded reader adds its counters to the store's every this many
// faults, not on each: the store's counters share one cache line.
constexpr uint64_t kPublishEvery = 64;

// Ring words a cache needs so that making room never reaches its kept
// lists: those lists, the one being inserted and the space a wrap can
// waste, all at the longest entry `longest`.
uint64_t FloorWords(uint64_t longest) {
  return (ShardedAccess::kKeptLists + 2) * longest;
}

}  // namespace

ShardStore::ShardStore(ShardManifest manifest, const Options& options)
    : manifest_(std::move(manifest)),
      options_(options),
      shards_(MapAllShards(manifest_, bounded())),
      resident_(
          std::make_unique<std::atomic<bool>[]>(manifest_.NumShards())) {
  if (!bounded()) return;
  max_degree_ = MaxDegree(manifest_);
  if (FloorWords(ShardedAccess::kEntryHeader + max_degree_) >
      kMaxRingWords) {
    throw std::invalid_argument(
        "ShardStore: degree " + std::to_string(max_degree_) +
        " is too large for a bounded store's list cache");
  }
  reader_share_ =
      options_.resident_budget_bytes / ShardedAccess::kReaderShare;
}

const MappedShard& ShardStore::Recheck(uint32_t s) const {
  CheckShardBytes(manifest_, s, shards_[s].file(), /*verify_checksum=*/false);
  return shards_[s];
}

bool ShardStore::Admit(uint32_t s) const {
  if (resident_[s].load(std::memory_order_acquire)) return false;
  Recheck(s);
  // Two readers may both check; the one that flips the flag charges.
  if (resident_[s].exchange(true, std::memory_order_acq_rel)) return false;
  Charge(shards_[s].bytes(), /*force=*/true);
  counters_.resident_shards.fetch_add(1, std::memory_order_relaxed);
  return true;
}

const MappedShard* ShardStore::Acquire(uint32_t s) const {
  if (bounded()) {
    Recheck(s);
  } else if (!Admit(s)) {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
    return &shards_[s];
  }
  counters_.faults.fetch_add(1, std::memory_order_relaxed);
  return &shards_[s];
}

bool ShardStore::Charge(uint64_t bytes, bool force) const {
  const uint64_t budget = options_.resident_budget_bytes;
  uint64_t now = counters_.charged.load(std::memory_order_relaxed);
  do {
    if (!force && now + bytes > budget) return false;
  } while (!counters_.charged.compare_exchange_weak(
      now, now + bytes, std::memory_order_relaxed));
  uint64_t peak = counters_.peak.load(std::memory_order_relaxed);
  while (peak < now + bytes &&
         !counters_.peak.compare_exchange_weak(peak, now + bytes,
                                               std::memory_order_relaxed)) {
  }
  return true;
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
  s.resident_shards =
      counters_.resident_shards.load(std::memory_order_relaxed);
  s.budget_bytes = options_.resident_budget_bytes;
  return s;
}

// ------------------------------------------------------------ reader --

namespace {

// The first ring a reader maps within the budget, in pages.
constexpr uint64_t kFirstRingPages = 2;

uint64_t RoundUpToPages(uint64_t bytes) {
  const uint64_t page = PageBytes();
  return (bytes + page - 1) / page * page;
}

}  // namespace

ShardedAccess::ShardedAccess(const ShardStore& store) : store_(&store) {}

ShardedAccess::ShardedAccess(ShardedAccess&& other) noexcept
    : store_(std::exchange(other.store_, nullptr)),
      cache_(std::move(other.cache_)),
      retired_(std::move(other.retired_)),
      longest_(other.longest_),
      reads_(other.reads_),
      own_(other.own_),
      published_(other.published_) {}

ShardedAccess::~ShardedAccess() {
  if (store_ == nullptr) return;  // moved from
  Publish();
  uint64_t charged = cache_.bytes();
  for (const Retired& r : retired_) charged += r.arena.get_deleter().bytes;
  if (charged > 0) store_->Release(charged);
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

void ShardedAccess::Admit(uint32_t s) const {
  if (store_->Admit(s)) {
    ++own_.faults;
    Publish();
  }
}

std::span<const VertexId> ShardedAccess::Miss(VertexId v) const {
  const MappedShard& shard = store_->Recheck(store_->ShardOf(v));
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
  // stay intact until the copy below overwrites them (in the retired
  // ring, if making room grew the ring).
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
  // Spans into a retired ring have expired once kHeldReads more reads
  // were served.
  while (!retired_.empty() && reads_ >= retired_.front().until) {
    store_->Release(retired_.front().arena.get_deleter().bytes);
    retired_.erase(retired_.begin());
  }
  Cache& c = cache_;
  const uint32_t words = kEntryHeader + degree;
  longest_ = std::max(longest_, words);
  // At most half the index slots in use: the index doubles, or the
  // oldest list goes (never a kept one: the index holds twice as many).
  if (c.index == nullptr && !GrowIndex(/*force=*/false)) {
    GrowIndex(/*force=*/true);
  }
  while (c.entries >= (c.mask + 1) / 2) {
    if (!GrowIndex(/*force=*/false)) EvictOldest();
  }
  // Grow the ring within the budget if it can; else evict the oldest
  // list, but never a kept one: then grow the ring regardless.
  while (c.arena == nullptr || !Fits(words)) {
    if (GrowRing(words, /*force=*/false)) continue;
    if (c.entries > kKeptLists) {
      EvictOldest();
    } else {
      GrowRing(words, /*force=*/true);
    }
  }
  return c.arena.get() + c.head + kEntryHeader;
}

bool ShardedAccess::GrowIndex(bool force) const {
  Cache& c = cache_;
  const uint64_t bytes =
      force ? PageBytes() : std::max<uint64_t>(2 * c.index.get_deleter().bytes,
                                               PageBytes());
  if (!force && c.bytes() - c.index.get_deleter().bytes + bytes >
                    store_->reader_share_) {
    return false;
  }
  if (!store_->Charge(bytes, force)) return false;
  const uint64_t slots = bytes / sizeof(Slot);
  std::unique_ptr<Slot[], PageUnmapper> old;
  try {
    old = std::exchange(c.index, std::unique_ptr<Slot[], PageUnmapper>(
                                     static_cast<Slot*>(MapPages(bytes)),
                                     PageUnmapper{bytes}));
  } catch (...) {
    store_->Release(bytes);
    throw;
  }
  const uint32_t old_slots = c.mask + 1;
  c.mask = static_cast<uint32_t>(slots - 1);
  c.shift = 32 - static_cast<uint32_t>(std::countr_zero(slots));
  if (old == nullptr) return true;
  for (uint32_t i = 0; i < old_slots; ++i) {
    if (old[i].key == 0) continue;
    uint32_t j = Home(c, old[i].key - 1);
    while (c.index[j].key != 0) j = (j + 1) & c.mask;
    c.index[j] = old[i];
  }
  store_->Release(old.get_deleter().bytes);
  return true;
}

bool ShardedAccess::GrowRing(uint32_t words, bool force) const {
  Cache& c = cache_;
  const uint64_t ring_bytes = c.arena.get_deleter().bytes;
  uint64_t bytes;
  if (force) {
    // The floor at the longest entry so far, larger than the ring (or
    // making room would not have reached the kept lists): past it no
    // insertion does until a longer list arrives.
    bytes = RoundUpToPages(FloorWords(longest_) * sizeof(uint32_t));
  } else {
    // The lists carried over take at most the ring's occupied words.
    const uint32_t occupied =
        c.wrap == kNoWrap ? c.head - c.tail : c.wrap - c.tail + c.head;
    const uint64_t room =
        store_->reader_share_ - std::min(store_->reader_share_, c.bytes()) +
        ring_bytes;
    bytes = std::min({std::max(2 * ring_bytes, kFirstRingPages * PageBytes()),
                      room / PageBytes() * PageBytes(),
                      kMaxRingWords * sizeof(uint32_t)});
    if (bytes <= ring_bytes ||
        bytes < (uint64_t{occupied} + words) * sizeof(uint32_t)) {
      return false;
    }
  }
  if (!store_->Charge(bytes, force)) return false;
  std::unique_ptr<uint32_t[], PageUnmapper> old;
  try {
    old = std::exchange(c.arena, std::unique_ptr<uint32_t[], PageUnmapper>(
                                     static_cast<uint32_t*>(MapPages(bytes)),
                                     PageUnmapper{bytes}));
  } catch (...) {
    store_->Release(bytes);
    throw;
  }
  const uint32_t tail = c.tail;
  const uint32_t wrap = c.wrap;
  const uint32_t entries = c.entries;
  c.capacity = static_cast<uint32_t>(bytes / sizeof(uint32_t));
  c.head = c.tail = 0;
  c.wrap = kNoWrap;
  c.entries = 0;
  if (old == nullptr) return true;
  // Carry the indexed lists over, oldest first, stamps and all; their
  // slots move with them. The old ring stays mapped until spans into it
  // expire.
  uint32_t at = tail;
  for (uint32_t n = 0; n < entries; ++n) {
    const uint32_t* entry = old.get() + at;
    const uint32_t entry_words = kEntryHeader + entry[1];
    for (uint32_t i = Home(c, entry[0]); c.index[i].key != 0;
         i = (i + 1) & c.mask) {
      if (c.index[i].key == entry[0] + 1) {
        if (c.index[i].at == at) {
          std::memcpy(c.arena.get() + c.head, entry,
                      entry_words * sizeof(uint32_t));
          c.index[i].at = c.head;
          c.head += entry_words;
          ++c.entries;
        }
        break;
      }
    }
    at += entry_words;
    if (at == wrap) at = 0;
  }
  retired_.push_back({std::move(old), reads_ + kHeldReads});
  return true;
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
