// Persistent worker pool for chain execution.
//
// Every accuracy figure in the paper fans out hundreds of independent
// Markov chains; before the engine existed each call site spawned (and
// joined) fresh std::threads per fan-out via util/parallel.h. ChainPool
// keeps one set of workers alive for the whole process and hands them
// successive jobs, so the engine's round-based convergence loop — which
// issues one fan-out per round — pays thread start-up cost once, not once
// per round.
//
// Determinism contract: indices are claimed dynamically, so *which worker*
// runs index i varies between runs. The engine's index is a block of
// chains stepped as one interleaved group, whose size follows the thread
// count; but a grouped chain computes exactly what it computes alone,
// every chain's RNG stream derives from (base_seed, chain index) alone,
// and results merge in chain order — so they are bit-identical at any
// thread count.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/sync.h"

namespace grw {

/// Persistent thread pool dispatching indexed jobs to long-lived workers.
class ChainPool {
 public:
  /// Creates a pool with total concurrency `threads` (the calling thread
  /// participates in every job, so threads - 1 workers are spawned).
  /// threads == 0 means the hardware thread count.
  explicit ChainPool(unsigned threads = 0);
  ~ChainPool();

  ChainPool(const ChainPool&) = delete;
  ChainPool& operator=(const ChainPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  unsigned NumThreads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(i) for every i in [0, n), blocking until all complete.
  /// At most `max_threads` threads participate (0 = every pool thread);
  /// body must be safe to call concurrently for distinct i. Exceptions
  /// thrown by body are rethrown here (the first one observed).
  /// Jobs are serialized: concurrent ForEach calls from different threads
  /// queue up. A ForEach issued from inside one of this pool's own
  /// bodies runs its job inline on the calling thread (the outer job is
  /// waiting on that thread, so parallel dispatch would deadlock).
  template <typename Body>
  void ForEach(size_t n, Body&& body, unsigned max_threads = 0) {
    static_assert(std::is_invocable_v<Body&, size_t>,
                  "ChainPool body must be callable as body(size_t)");
    // Function-pointer trampoline: no std::function, no allocation; the
    // callable lives on the caller's stack for the duration of the job.
    RunJob(
        n,
        [](void* ctx, size_t i) {
          (*static_cast<std::remove_reference_t<Body>*>(ctx))(i);
        },
        &body, max_threads);
  }

  /// Process-wide pool at hardware concurrency, created on first use.
  static ChainPool& Shared();

 private:
  void RunJob(size_t n, void (*invoke)(void*, size_t), void* ctx,
              unsigned max_threads) GRW_EXCLUDES(submit_mu_, mu_);
  void WorkerLoop() GRW_EXCLUDES(mu_);
  // Claims indices until exhausted; records the first exception.
  void DrainIndices(void (*invoke)(void*, size_t), void* ctx, size_t n)
      GRW_EXCLUDES(mu_);

  // Immutable after the constructor: read by WorkerLoop (its own size)
  // and joined in the destructor without a lock.
  std::vector<std::thread> workers_;

  Mutex submit_mu_ GRW_ACQUIRED_BEFORE(mu_);  // serializes whole jobs

  Mutex mu_;           // guards the job slot below
  CondVar job_cv_;   // workers wait here for the next job
  CondVar done_cv_;  // the submitter waits here
  using JobFn = void (*)(void*, size_t);
  uint64_t job_id_ GRW_GUARDED_BY(mu_) = 0;
  size_t job_n_ GRW_GUARDED_BY(mu_) = 0;
  JobFn job_invoke_ GRW_GUARDED_BY(mu_) = nullptr;
  void* job_ctx_ GRW_GUARDED_BY(mu_) = nullptr;
  // Workers still allowed to join the job.
  unsigned job_slots_ GRW_GUARDED_BY(mu_) = 0;
  size_t finished_workers_ GRW_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_exception_ GRW_GUARDED_BY(mu_);
  bool shutdown_ GRW_GUARDED_BY(mu_) = false;

  std::atomic<size_t> next_index_{0};
};

}  // namespace grw
