// Fair multi-tenant scheduler: many concurrent requests, one shared
// ChainPool.
//
// Connection threads hand request lines to HandleLine(), and each
// estimation job runs on the thread that submitted it; the scheduler owns
// no threads. It only decides when a job may start:
//
//   admission   at most `workers + queue_limit` jobs are in flight
//               (running or waiting). A request beyond that is rejected
//               *immediately* with an overloaded error — an overwhelmed
//               daemon sheds load instead of accumulating unbounded
//               latency. `queue_limit` 0 means no waiting at all, not
//               no service.
//   fairness    admission hands out FIFO tickets; a job starts once its
//               ticket is next and fewer than `workers` jobs are running.
//               Every job runs its engine on the ONE shared ChainPool
//               (EngineOptions::pool) and holds a ChainPool::Share for
//               the run, so each fan-out of R running jobs uses about
//               1/R of the pool's threads (util/chain_pool.h): a
//               request of few chains steps them as one interleaved
//               group on its own thread, and no request monopolizes
//               the machine.
//   tenants     optional per-tenant distinct-query budgets reusing the
//               engine's crawl machinery (EngineOptions::crawl): each
//               request of tenant T runs with a crawl budget capped by
//               T's remaining allowance; its measured distinct fetches
//               are charged back at completion, and a tenant whose
//               allowance is spent gets an error at admission. The check
//               is admission-time and the charge completion-time, so
//               concurrent requests of one tenant can overlap the
//               boundary by at most their own caps — never another
//               tenant's.
//   deadlines   deadline_ms arms EngineOptions::cancel with an absolute
//               deadline measured from admission (waiting counts); a
//               job cancelled mid-run answers `deadline exceeded` with
//               the steps it completed. Jobs whose deadline passes while
//               still waiting are answered without running at all.
//   drain       Drain() stops admitting and waits until nothing is in
//               flight — the SIGTERM half of the daemon's graceful
//               shutdown.
//
// A request never takes its caller down: every job runs inside a
// try/catch and any exception (unknown graph shapes, engine validation,
// OOM-ish std::bad_alloc) becomes an error response.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "serve/protocol.h"
#include "serve/registry.h"
#include "util/chain_pool.h"
#include "util/sync.h"

namespace grw::serve {

struct SchedulerOptions {
  /// Estimation jobs running at once.
  int workers = 4;
  /// Jobs allowed to *wait* beyond the ones running; further submissions
  /// are rejected with an overloaded error.
  size_t queue_limit = 64;
  /// Backoff hint carried in the structured RETRY_AFTER load-shed
  /// response (protocol.h OverloadedResponse): how long a shed client
  /// should wait before resending. Rough guide: the expected time for
  /// one queue slot to free up.
  double retry_after_ms = 50.0;
  /// Per-tenant distinct-query allowance across a tenant's lifetime
  /// (0 = unlimited). Requests naming a tenant consume it via crawl
  /// accounting; anonymous requests are exempt.
  uint64_t tenant_budget = 0;
  /// Cap on each job's threads on the shared pool (0 = none); a job
  /// never takes more than its share (ChainPool::Share).
  unsigned engine_threads = 0;
  /// Field caps applied at parse time.
  RequestLimits limits;
  /// Pool all jobs share; nullptr = ChainPool::Shared().
  ChainPool* pool = nullptr;
};

class ServeScheduler {
 public:
  /// The registry must outlive the scheduler.
  ServeScheduler(const SnapshotRegistry* registry, SchedulerOptions options);
  /// Drains (blocking) if Drain() was not called explicitly.
  ~ServeScheduler();

  ServeScheduler(const ServeScheduler&) = delete;
  ServeScheduler& operator=(const ServeScheduler&) = delete;

  /// Parses and serves one request line, blocking until the single-line
  /// JSON response is ready. Safe to call from many threads. Never
  /// throws: malformed input, unknown graphs, overload, deadlines and
  /// internal errors all come back as error responses.
  std::string HandleLine(std::string_view line);

  /// Stops admitting and blocks until every admitted job has answered.
  /// Idempotent; HandleLine after Drain answers with an error.
  void Drain();

  struct Stats {
    uint64_t accepted = 0;        // estimation jobs admitted
    uint64_t completed = 0;       // estimation jobs answered ok
    uint64_t errors = 0;          // error responses of any kind
    uint64_t rejected_queue = 0;  // admission-control rejections
  };
  /// Consistent snapshot of the counters, taken under the lock — the
  /// drain report and monitoring never read half-updated totals.
  Stats stats() const GRW_EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Outcome {
    std::string response;
    bool ok = false;                // the response is an estimate
    uint64_t charged_distinct = 0;  // distinct fetches the run made
  };

  std::string SubmitEstimate(EstimateRequest request) GRW_EXCLUDES(mu_);
  Outcome RunJob(const EstimateRequest& req,
                 std::optional<Clock::time_point> deadline) const
      GRW_EXCLUDES(mu_);
  void CountError() GRW_EXCLUDES(mu_);

  const SnapshotRegistry* registry_;
  SchedulerOptions options_;

  mutable Mutex mu_;
  // Waited on by jobs for their turn to start and by Drain for in_flight_
  // to reach zero; every state change notifies all.
  CondVar cv_;
  uint64_t next_ticket_ GRW_GUARDED_BY(mu_) = 0;  // next one handed out
  uint64_t next_start_ GRW_GUARDED_BY(mu_) = 0;   // next one to start
  int running_ GRW_GUARDED_BY(mu_) = 0;
  size_t in_flight_ GRW_GUARDED_BY(mu_) = 0;  // admitted, not yet answered
  bool draining_ GRW_GUARDED_BY(mu_) = false;
  Stats stats_ GRW_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> tenant_spent_ GRW_GUARDED_BY(mu_);
};

}  // namespace grw::serve
