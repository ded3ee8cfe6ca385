// Persistent worker pool: the one fan-out primitive in the system.
//
// Every accuracy figure in the paper fans out hundreds of independent
// Markov chains, and the engine's round loop issues one fan-out per
// round. ChainPool keeps one set of workers alive for the whole process,
// so a fan-out pays thread start-up cost once, not once per call.
//
// Every ForEach is its own job, and any number may run at once: a served
// request, a nested ForEach inside a body, and a graph build each drain
// their own indices on the calling thread, while idle workers help the
// oldest job that still has a free helper slot.
//
// Share contract: a run (an engine run, one served request) holds a
// ChainPool::Share for its whole length, and the pool counts the shares
// alive. Each of the run's fan-outs uses at most Share::Threads(cap) =
// min(cap or NumThreads(), max(1, NumThreads() / runs)) threads, read
// when the fan-out starts. A lone run gets every thread; R concurrent
// runs split the pool about evenly, so a run of few chains steps them as
// one interleaved group on its own thread instead of publishing a job
// per round. The count is read without a lock and may be momentarily
// stale: it moves speed, never results.
//
// Determinism contract: indices are claimed dynamically, so *which
// thread* runs index i varies between runs. The engine's index is a
// block of chains stepped as one interleaved group, whose size follows
// the run's share; but a grouped chain computes exactly what it
// computes alone, every chain's RNG stream derives from (base_seed,
// chain index) alone, and results merge in chain order — so they are
// bit-identical at any thread count and any number of concurrent runs.

#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/sync.h"

namespace grw {

/// Persistent thread pool dispatching indexed jobs to long-lived workers.
class ChainPool {
 public:
  /// Creates a pool with total concurrency `threads` (the calling thread
  /// works on its own job, so threads - 1 workers are spawned).
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
  /// The calling thread claims indices itself, helped by up to
  /// min(max_threads, n) - 1 idle workers (max_threads 0 = every pool
  /// thread); body must be safe to call concurrently for distinct i.
  /// Exceptions thrown by body are rethrown here (the first one
  /// observed) once every index has run. Safe to call from many threads
  /// at once and from inside a body: each call only ever waits for the
  /// helpers of its own job.
  template <typename Body>
  void ForEach(size_t n, Body&& body, unsigned max_threads = 0) {
    static_assert(std::is_invocable_v<Body&, size_t>,
                  "ChainPool body must be callable as body(size_t)");
    using Callable = std::remove_reference_t<Body>;
    if constexpr (std::is_function_v<Callable>) {
      Callable* function = body;  // a function has no object address
      ForEach(n, function, max_threads);
    } else {
      // Function-pointer trampoline: no std::function, no allocation;
      // the callable lives on the caller's stack for the whole job.
      RunJob(
          n, [](void* ctx, size_t i) { (*static_cast<Callable*>(ctx))(i); },
          &body, max_threads);
    }
  }

  /// One run's claim on the pool (the share contract above): counted in
  /// runs() from construction to destruction.
  class Share {
   public:
    explicit Share(ChainPool& pool) : pool_(pool) {
      pool_.runs_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Share() { pool_.runs_.fetch_sub(1, std::memory_order_relaxed); }
    Share(const Share&) = delete;
    Share& operator=(const Share&) = delete;

    /// The threads one fan-out of this run may use now:
    /// min(cap or NumThreads(), max(1, NumThreads() / runs())).
    unsigned Threads(unsigned cap = 0) const;

   private:
    ChainPool& pool_;
  };

  /// Shares alive now (the runs sharing the pool).
  unsigned runs() const { return runs_.load(std::memory_order_relaxed); }

  /// Process-wide pool at hardware concurrency, created on first use.
  static ChainPool& Shared();

 private:
  struct Job;  // one ForEach, on its submitter's stack

  void RunJob(size_t n, void (*invoke)(void*, size_t), void* ctx,
              unsigned max_threads) GRW_EXCLUDES(mu_);
  void WorkerLoop() GRW_EXCLUDES(mu_);
  // Claims the job's indices until exhausted; records the first exception.
  void Drain(Job& job) GRW_EXCLUDES(mu_);

  // Immutable after the constructor: read by NumThreads and joined in
  // the destructor without a lock.
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // idle workers wait here for a free helper slot
  CondVar done_cv_;  // submitters wait here for their helpers to leave
  // Jobs with a free helper slot, oldest first.
  std::vector<Job*> open_ GRW_GUARDED_BY(mu_);
  bool shutdown_ GRW_GUARDED_BY(mu_) = false;
  std::atomic<unsigned> runs_{0};  // Shares alive
};

}  // namespace grw
