#include "serve/scheduler.h"

#include <algorithm>
#include <exception>

#include "engine/engine.h"
#include "util/fault.h"

namespace grw::serve {

namespace {

std::string DeadlineError(uint64_t steps_per_chain) {
  std::string out = "deadline exceeded";
  if (steps_per_chain > 0) {
    out += " after " + std::to_string(steps_per_chain) + " steps/chain";
  } else {
    out += " before the run started";
  }
  return out;
}

}  // namespace

ServeScheduler::ServeScheduler(const SnapshotRegistry* registry,
                               SchedulerOptions options)
    : registry_(registry), options_(options) {}

ServeScheduler::~ServeScheduler() { Drain(); }

void ServeScheduler::CountError() {
  MutexLock lock(mu_);
  ++stats_.errors;
}

std::string ServeScheduler::HandleLine(std::string_view line) {
  ParsedRequest parsed = ParseRequestLine(line, options_.limits);
  if (!parsed.request.has_value()) {
    CountError();
    return ErrorResponse(parsed.error);
  }
  switch (parsed.request->verb) {
    case Request::Verb::kPing:
      return PingResponse(options_.limits);
    case Request::Verb::kList:
      return ListResponse(registry_->List());
    case Request::Verb::kEstimate:
      return SubmitEstimate(std::move(parsed.request->estimate));
  }
  CountError();
  return ErrorResponse("internal: unhandled verb");
}

std::string ServeScheduler::SubmitEstimate(EstimateRequest request) {
  std::optional<Clock::time_point> deadline;
  if (request.deadline_ms > 0.0) {
    deadline = Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                                  request.deadline_ms * 1000.0));
  }
  const int workers = std::max(1, options_.workers);

  {
    MutexLock lock(mu_);
    if (draining_) {
      ++stats_.errors;
      return ErrorResponse("server draining, not accepting requests");
    }
    // Load shed with the structured RETRY_AFTER error: refused before
    // any work, so the client can safely back off and resend
    // (QueryWithRetry in client.h does). The chaos site forces this arm
    // so injection exercises the whole shed-retry-succeed loop.
    // Full once `workers` run and `queue_limit` more wait (written so
    // that no queue_limit can overflow the sum).
    const size_t slots = static_cast<size_t>(workers);
    if ((in_flight_ >= slots && in_flight_ - slots >= options_.queue_limit) ||
        GRW_FAULT("serve.admit")) {
      ++stats_.rejected_queue;
      ++stats_.errors;
      return OverloadedResponse("server overloaded (queue full)",
                                options_.retry_after_ms);
    }
    // Tenant admission: cap the request's crawl budget by the tenant's
    // remaining allowance. The engine then enforces it chain-locally and
    // reports the actual distinct fetches, charged back on completion.
    if (!request.tenant.empty() && options_.tenant_budget > 0) {
      const uint64_t spent = tenant_spent_[request.tenant];
      const uint64_t remaining =
          spent >= options_.tenant_budget ? 0
                                          : options_.tenant_budget - spent;
      uint64_t cap = remaining;
      if (request.budget_queries > 0) {
        cap = std::min(cap, request.budget_queries);
      }
      if (cap < static_cast<uint64_t>(request.chains)) {
        ++stats_.errors;
        return ErrorResponse(
            "tenant '" + request.tenant + "': distinct-query budget "
            "exhausted (" + std::to_string(remaining) + " of " +
            std::to_string(options_.tenant_budget) + " remaining, need >= " +
            std::to_string(request.chains) + ")");
      }
      request.crawl = true;
      request.budget_queries = cap;
    }
    ++stats_.accepted;
    ++in_flight_;
    // Start in admission order, once fewer than `workers` jobs run.
    const uint64_t ticket = next_ticket_++;
    while (ticket != next_start_ || running_ >= workers) cv_.Wait(mu_);
    ++next_start_;
    ++running_;
    cv_.NotifyAll();  // the next ticket may fit in another free slot
  }

  Outcome outcome = RunJob(request, deadline);

  MutexLock lock(mu_);
  if (outcome.ok) {
    ++stats_.completed;
  } else {
    ++stats_.errors;
  }
  // Charge real consumption even for cancelled/failed runs: the
  // distinct fetches happened either way.
  if (outcome.charged_distinct > 0 && !request.tenant.empty() &&
      options_.tenant_budget > 0) {
    tenant_spent_[request.tenant] += outcome.charged_distinct;
  }
  --running_;
  --in_flight_;
  // Under the lock: once in_flight_ reads zero, Drain (and with it the
  // destructor) may return, so nothing may touch *this after unlocking.
  cv_.NotifyAll();
  return std::move(outcome.response);
}

ServeScheduler::Outcome ServeScheduler::RunJob(
    const EstimateRequest& req,
    std::optional<Clock::time_point> deadline) const {
  Outcome out;
  try {
    // Chaos site: a job blowing up mid-run must surface as a clean
    // structured error on THIS request and leave the pool healthy.
    if (GRW_FAULT("serve.job")) {
      throw std::runtime_error("injected fault: serve.job");
    }
    if (deadline.has_value() && Clock::now() >= *deadline) {
      // Expired while waiting: answer without occupying the pool.
      out.response = ErrorResponse(DeadlineError(0));
      return out;
    }
    const std::optional<GraphSource> source =
        registry_->FindSource(req.graph);
    if (!source.has_value()) {
      out.response = ErrorResponse("unknown graph '" + req.graph + "'");
      return out;
    }
    // Configurations the engine refuses (an alpha = 0 (k, d), a budget
    // below the chain count) throw from its constructor and land in the
    // catch below as an error reply.
    EngineOptions options = ToEngineOptions(req);
    options.threads = options_.engine_threads;
    options.pool = options_.pool;  // nullptr = ChainPool::Shared()
    if (deadline.has_value()) {
      options.cancel = [at = *deadline] { return Clock::now() >= at; };
    }
    EstimationEngine engine =
        source->sharded()
            ? EstimationEngine(source->shards(), req.config, options)
            : EstimationEngine(source->graph(), req.config, options);
    const EngineResult result = engine.Run();
    out.charged_distinct = result.access.distinct_fetches;
    if (result.cancelled) {
      out.response = ErrorResponse(DeadlineError(result.steps_per_chain));
    } else {
      out.response = EstimateResponse(req, result);
      out.ok = true;
    }
  } catch (const std::exception& e) {
    out.response = ErrorResponse(e.what());
  } catch (...) {
    out.response = ErrorResponse("internal error");
  }
  return out;
}

void ServeScheduler::Drain() {
  MutexLock lock(mu_);
  draining_ = true;
  while (in_flight_ > 0) cv_.Wait(mu_);
}

ServeScheduler::Stats ServeScheduler::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace grw::serve
