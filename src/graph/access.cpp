#include "graph/access.h"

#include <sys/mman.h>

#include <cmath>
#include <new>

#include "util/fault.h"

namespace grw {

void* MapPages(size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void UnmapPages(void* p, size_t bytes) noexcept { ::munmap(p, bytes); }

CrawlAccess::CrawlAccess(const Graph& g, const Options& options)
    : g_(&g), opt_(options), fail_rng_(options.failure.seed) {
  const uint64_t n = g.NumNodes();
  // 0 or oversize means "never evict": every node's list fits.
  capacity_ = static_cast<uint32_t>(
      opt_.cache_entries == 0 || opt_.cache_entries >= n
          ? n
          : opt_.cache_entries);
  never_evicts_ = capacity_ == n;
  slot_of_.assign(n, kNoSlot);
  node_of_.assign(capacity_, 0);
  prev_.assign(capacity_, kNoSlot);
  next_.assign(capacity_, kNoSlot);
  ever_fetched_.assign((n + 63) / 64, 0);
}

void CrawlAccess::ResetStats() {
  stats_ = CrawlStats{};
  // The distinct-fetch registry belongs to the accounting phase the
  // counters describe: keeping it would make post-reset distinct counts
  // (and the budget) skip nodes fetched before the reset.
  std::fill(ever_fetched_.begin(), ever_fetched_.end(), 0);
}

void CrawlAccess::ResetCache() {
  for (uint32_t s = 0; s < used_; ++s) slot_of_[node_of_[s]] = kNoSlot;
  std::fill(ever_fetched_.begin(), ever_fetched_.end(), 0);
  head_ = tail_ = kNoSlot;
  used_ = 0;
  stats_ = CrawlStats{};
  // A fresh crawler replays the same failure schedule: determinism per
  // (seed, fetch ordinal), independent of what ran before the reset.
  fail_rng_.Seed(opt_.failure.seed);
}

void CrawlAccess::SimulateTransientFailures() const {
  const Options::FailureModel& f = opt_.failure;
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
      // arrives — the failure model never alters what Fetch returns.
      stats_.backoff_latency_us += f.backoff_max_us;
      break;
    }
    double wait = f.backoff_base_us * std::ldexp(1.0, attempt);
    if (wait > f.backoff_max_us) wait = f.backoff_max_us;
    wait += wait * f.jitter * fail_rng_.UniformReal();
    stats_.backoff_latency_us += wait;
    ++stats_.retries;
    ++attempt;
  }
}

void CrawlAccess::RecordInjectedFailure() const {
  // A chaos-injected transient failure (GRW_FAULT "crawl.fetch"): one
  // failed attempt, answered by one retry that succeeds. Reachable even
  // with the probability model off, so chaos runs cover the crawl layer
  // regardless of request options.
  ++stats_.transient_failures;
  ++stats_.retries;
  stats_.backoff_latency_us += opt_.failure.backoff_base_us;
}

}  // namespace grw
