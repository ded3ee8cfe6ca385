#include "graph/access.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/fault.h"

namespace grw {

namespace {

// Cap on a single backoff wait, and the modeled cost of the slow-path
// fallback after a giveup.
constexpr double kBackoffMaxUs = 1e6;
// Uniform extra wait fraction in [0, kBackoffJitter) per backoff
// (decorrelates retry storms).
constexpr double kBackoffJitter = 0.5;
// The fewest cells a crawler's node index has.
constexpr uint64_t kMinIndexSize = 64;

}  // namespace

CrawlCache::CrawlCache(VertexId num_nodes, const CrawlOptions& options,
                       uint64_t fail_seed)
    : opt_(options), fail_rng_(fail_seed) {
  const uint64_t n = num_nodes;
  // 0 or oversize means "never evict": every node's list fits.
  capacity_ = static_cast<uint32_t>(
      opt_.cache_entries == 0 || opt_.cache_entries >= n
          ? n
          : opt_.cache_entries);
  never_evicts_ = capacity_ == n;
  // A bounded crawler starts with the index its capacity fills to half,
  // so it rehashes only once it has fetched more than capacity_ distinct
  // nodes. An unbounded one starts at 64 cells (512 bytes) and grows with
  // what it fetches. The cap keeps mask_ in 32 bits. (Reserving the LRU
  // table to capacity_ as well measured no faster, with a larger peak
  // RSS.)
  uint64_t cells = kMinIndexSize;
  if (!never_evicts_) {
    cells = std::min(std::bit_ceil(std::max(2 * uint64_t{capacity_}, cells)),
                     uint64_t{1} << 32);
  }
  index_.resize(cells);
  mask_ = static_cast<uint32_t>(cells - 1);
  shift_ = 64 - std::countr_zero(cells);
}

void CrawlCache::Admit(VertexId v, uint32_t at) {
  ++stats_.fetches;
  stats_.simulated_latency_us += opt_.latency_us;
  // Cold branch off the miss path; fail_prob == 0.0 (the default) costs
  // one predictable compare per miss. The chaos site is the literal
  // `false` in normal builds (see util/fault.h).
  if (opt_.failure.fail_prob > 0.0) SimulateTransientFailures();
  if (GRW_FAULT("crawl.fetch")) RecordInjectedFailure();
  const uint32_t s = used_ < capacity_ ? used_++ : tail_;
  if (!never_evicts_) {
    if (s == slots_.size()) {
      slots_.push_back({v, kNoSlot, kNoSlot});
    } else {
      Unlink(s);
      // The evicted node keeps its entry: a later miss on it is a
      // re-fetch, not a distinct one. Clearing its slot moves no entry,
      // so `at` stays valid.
      index_[Find(slots_[s].node)].slot = kNoSlot;
      slots_[s].node = v;
      ++stats_.evictions;
    }
    PushFront(s);
  }
  Entry& e = index_[at];
  e.slot = s;
  if (e.node == kNoNode) {
    e.node = v;
    ++stats_.distinct_fetches;
    if (2 * stats_.distinct_fetches > index_.size()) Grow();
  }
}

void CrawlCache::Grow() {
  std::vector<Entry> old(2 * index_.size());
  old.swap(index_);
  mask_ = static_cast<uint32_t>(index_.size() - 1);
  --shift_;
  for (const Entry& e : old) {
    if (e.node != kNoNode) index_[Find(e.node)] = e;
  }
}

void CrawlCache::SimulateTransientFailures() {
  const CrawlOptions::FailureModel& f = opt_.failure;
  // Each attempt fails independently with fail_prob; the loop models
  //   attempt -> fail -> wait(backoff) -> attempt -> ...
  // until an attempt succeeds or the retry budget is spent.
  int attempt = 0;
  while (fail_rng_.Bernoulli(f.fail_prob)) {
    ++stats_.transient_failures;
    if (attempt >= f.max_retries) {
      ++stats_.giveups;
      // Past the fast-path budget the crawler escalates to its slow
      // reliable path; model that as one maximal wait. Data still
      // arrives — the failure model never alters what a read returns.
      stats_.backoff_latency_us += kBackoffMaxUs;
      break;
    }
    double wait = f.backoff_base_us * std::ldexp(1.0, attempt);
    if (wait > kBackoffMaxUs) wait = kBackoffMaxUs;
    wait += wait * kBackoffJitter * fail_rng_.UniformReal();
    stats_.backoff_latency_us += wait;
    ++stats_.retries;
    ++attempt;
  }
}

void CrawlCache::RecordInjectedFailure() {
  // A chaos-injected transient failure (GRW_FAULT "crawl.fetch"): one
  // failed attempt, answered by one retry that succeeds. Reachable even
  // with the probability model off, so chaos runs cover the crawl layer
  // regardless of request options.
  ++stats_.transient_failures;
  ++stats_.retries;
  stats_.backoff_latency_us += opt_.failure.backoff_base_us;
}

}  // namespace grw
