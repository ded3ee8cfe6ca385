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
    : registry_(registry), options_(options) {
  const int workers = std::max(1, options_.workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

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
  Job job;
  job.admitted = std::chrono::steady_clock::now();
  if (request.deadline_ms > 0.0) {
    job.has_deadline = true;
    job.deadline =
        job.admitted + std::chrono::microseconds(static_cast<int64_t>(
                           request.deadline_ms * 1000.0));
  }

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
    if (queue_.size() >= options_.queue_limit || GRW_FAULT("serve.admit")) {
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
      job.tenant_cap = cap;
    }
    job.request = std::move(request);
    ++stats_.accepted;
    queue_.push_back(&job);
  }
  queue_cv_.NotifyOne();

  MutexLock lock(job.mu);
  // Explicit wait loop so the analysis checks job.done against job.mu.
  while (!job.done) job.cv.Wait(job.mu);
  return std::move(job.response);
}

void ServeScheduler::WorkerLoop() {
  while (true) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!draining_ && queue_.empty()) queue_cv_.Wait(mu_);
      if (queue_.empty()) return;  // draining and nothing left
      job = queue_.front();
      queue_.pop_front();
    }
    RunJob(*job);
  }
}

void ServeScheduler::RunJob(Job& job) {
  const EstimateRequest& req = job.request;
  std::string response;
  bool ok = false;
  // Worker-local until the locked accounting block below: the submitter
  // never reads it, so it needs no lock and no field on the Job.
  uint64_t charged_distinct = 0;

  try {
    // Chaos site: a worker blowing up mid-job must surface as a clean
    // structured error on THIS request and leave the pool healthy.
    if (GRW_FAULT("serve.job")) {
      throw std::runtime_error("injected fault: serve.job");
    }
    if (job.has_deadline &&
        std::chrono::steady_clock::now() >= job.deadline) {
      // Expired while queued: answer without occupying the pool.
      response = ErrorResponse(DeadlineError(0));
    } else {
      const std::optional<GraphSource> source =
          registry_->FindSource(req.graph);
      if (!source.has_value()) {
        response = ErrorResponse("unknown graph '" + req.graph + "'");
      } else {
        // Mode combinations the engine cannot run (sharded x crawl)
        // throw from its constructor and land in the catch below as an
        // error reply.
        EngineOptions options = ToEngineOptions(req);
        options.threads = options_.engine_threads;
        options.pool = options_.pool;  // nullptr = ChainPool::Shared()
        if (job.has_deadline) {
          const auto deadline = job.deadline;
          options.cancel = [deadline] {
            return std::chrono::steady_clock::now() >= deadline;
          };
        }
        EstimationEngine engine =
            source->sharded()
                ? EstimationEngine(source->shards(), req.config, options)
                : EstimationEngine(source->graph(), req.config, options);
        const EngineResult result = engine.Run();
        charged_distinct = result.access.distinct_fetches;
        if (result.cancelled) {
          response = ErrorResponse(DeadlineError(result.steps_per_chain));
        } else {
          response = EstimateResponse(req, result);
          ok = true;
        }
      }
    }
  } catch (const std::exception& e) {
    response = ErrorResponse(e.what());
  } catch (...) {
    response = ErrorResponse("internal error");
  }

  {
    MutexLock lock(mu_);
    if (ok) {
      ++stats_.completed;
    } else {
      ++stats_.errors;
    }
    // Charge real consumption even for cancelled/failed runs: the
    // distinct fetches happened either way.
    if (charged_distinct > 0 && !req.tenant.empty() &&
        options_.tenant_budget > 0) {
      tenant_spent_[req.tenant] += charged_distinct;
    }
  }

  {
    MutexLock lock(job.mu);
    job.response = std::move(response);
    job.done = true;
    // Notify INSIDE the critical section: the Job lives on the
    // submitter's stack and is destroyed the moment the submitter
    // observes done. Signalling after unlocking would race that
    // destruction (the submitter can be past Wait() the instant the
    // mutex is released); under the lock, it cannot observe done until
    // this scope closes.
    job.cv.NotifyOne();
  }
}

void ServeScheduler::Drain() {
  // drain_mu_ serializes concurrent Drain calls (Stop + destructor);
  // only the first joins the workers, later calls find them gone.
  MutexLock drain_lock(drain_mu_);
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ServeScheduler::Stats ServeScheduler::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace grw::serve
