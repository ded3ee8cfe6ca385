#include "graph/access.h"

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
  slot_of_.assign(n, kNoSlot);
  node_of_.assign(capacity_, 0);
  prev_.assign(capacity_, kNoSlot);
  next_.assign(capacity_, kNoSlot);
  ever_fetched_.assign((n + 63) / 64, 0);
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
