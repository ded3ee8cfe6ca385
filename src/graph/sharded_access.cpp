#include "graph/sharded_access.h"

#include <utility>
#include <vector>

namespace grw {

namespace {

// Catch missing files, torn shards and stale manifests at open time —
// the store's analogue of the monolithic loader's eager header
// validation — instead of minutes into a walk. The check touches pages;
// they are dropped right away so the store starts with nothing resident.
std::vector<MappedShard> MapAllShards(const ShardManifest& manifest,
                                      bool verify) {
  std::vector<MappedShard> shards;
  shards.reserve(manifest.NumShards());
  for (uint32_t s = 0; s < manifest.NumShards(); ++s) {
    shards.push_back(MapShard(manifest, s, verify));
    shards.back().DropPages();
  }
  return shards;
}

}  // namespace

ShardStore::ShardStore(ShardManifest manifest, const Options& options)
    : manifest_(std::move(manifest)),
      options_(options),
      shards_(MapAllShards(manifest_, options_.verify_on_fault)) {
  const uint32_t shards = manifest_.NumShards();
  MutexLock lock(mu_);
  resident_.assign(shards, false);
  prev_.assign(shards, kNone);
  next_.assign(shards, kNone);
  stats_.budget_bytes = options_.resident_budget_bytes;
}

const MappedShard* ShardStore::Acquire(uint32_t s) const {
  const MappedShard& shard = shards_[s];
  MutexLock lock(mu_);
  if (resident_[s]) {
    ++stats_.hits;
    if (head_ != s) {
      Unlink(s);
      PushFront(s);
    }
    return &shard;
  }

  // Fault: re-check the held mapping under the lock (a throw leaves the
  // shard non-resident and nothing charged), then charge it. The header
  // check is a few page touches; the expensive part — actual page-ins —
  // happens lazily on the caller's reads, outside any lock. Holding mu_
  // keeps the accounting exact (two chains faulting the same shard
  // resolve to one admission).
  CheckShardBytes(manifest_, s, shard.file(), options_.verify_on_fault);
  ++stats_.faults;
  stats_.resident_bytes += shard.bytes();
  ++stats_.resident_shards;
  resident_[s] = true;
  PushFront(s);
  EvictOverBudgetLocked(s);
  // Peak is sampled *after* eviction: the new shard's pages fault in
  // only as the caller reads them, and the victim's pages are dropped
  // before that, so the pre-eviction sum was never real memory.
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  return &shard;
}

void ShardStore::EvictOverBudgetLocked(uint32_t keep) const {
  const uint64_t budget = options_.resident_budget_bytes;
  if (budget == 0) return;
  // Evict from the LRU tail until within budget — but never the shard
  // just acquired, even if it alone exceeds the budget (the walk must
  // be able to read *something*; the effective floor is one shard).
  while (stats_.resident_bytes > budget && tail_ != kNone) {
    uint32_t victim = tail_;
    if (victim == keep) {
      victim = prev_[victim];
      if (victim == kNone) break;  // only the kept shard remains
    }
    Unlink(victim);
    // Eviction only drops pages; the mapping stays. A chain still
    // reading the victim refaults from disk — latency, never corruption.
    // The drop stays under mu_: measured outside it, wall time per
    // answer fell but CPU per walk step rose.
    shards_[victim].DropPages();
    stats_.resident_bytes -= shards_[victim].bytes();
    --stats_.resident_shards;
    ++stats_.evictions;
    resident_[victim] = false;
  }
}

void ShardStore::Unlink(uint32_t s) const {
  const uint32_t p = prev_[s];
  const uint32_t n = next_[s];
  if (p != kNone) next_[p] = n; else head_ = n;
  if (n != kNone) prev_[n] = p; else tail_ = p;
}

void ShardStore::PushFront(uint32_t s) const {
  prev_[s] = kNone;
  next_[s] = head_;
  if (head_ != kNone) prev_[head_] = s; else tail_ = s;
  head_ = s;
}

bool ShardStore::Resident(uint32_t s) const {
  MutexLock lock(mu_);
  return resident_[s];
}

ShardStats ShardStore::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

const MappedShard& ShardedAccess::Miss(VertexId v) const {
  const MappedShard* shard = store_->Acquire(store_->ShardOf(v));
  for (int j = kPins - 1; j > 0; --j) pins_[j] = pins_[j - 1];
  pins_[0] = shard;
  return *shard;
}

}  // namespace grw
