#include "util/chain_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/parallel.h"  // HardwareThreads

namespace grw {

// Fields marked mu_ are guarded by the pool's mu_. The analysis cannot
// name another object's lock from here, so that rule is kept by hand.
struct ChainPool::Job {
  Job(void (*invoke)(void*, size_t), void* ctx, size_t n)
      : invoke(invoke), ctx(ctx), n(n) {}

  void (*const invoke)(void*, size_t);
  void* const ctx;
  const size_t n;
  // The next unclaimed index; claimed without the lock.
  std::atomic<size_t> next{0};
  unsigned slots = 0;        // mu_: helpers that may still join
  unsigned helpers = 0;      // mu_: helpers draining now
  std::exception_ptr error;  // mu_: the first exception a body threw
};

ChainPool::ChainPool(unsigned threads) {
  if (threads == 0) threads = HardwareThreads();
  workers_.reserve(threads - 1);
  for (unsigned t = 0; t + 1 < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ChainPool::~ChainPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

ChainPool& ChainPool::Shared() {
  static ChainPool pool;
  return pool;
}

unsigned ChainPool::Share::Threads(unsigned cap) const {
  const unsigned threads = pool_.NumThreads();
  // runs() counts this share, so it is at least 1.
  const unsigned fair = std::max(1u, threads / pool_.runs());
  return std::min(cap == 0 ? threads : cap, fair);
}

void ChainPool::Drain(Job& job) {
  for (size_t i = job.next.fetch_add(1, std::memory_order_relaxed); i < job.n;
       i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      job.invoke(job.ctx, i);
    } catch (...) {
      MutexLock lock(mu_);
      if (!job.error) job.error = std::current_exception();
      // Keep claiming: every index runs even after a failure.
    }
  }
}

void ChainPool::WorkerLoop() {
  Job* helped = nullptr;  // the job this worker just left
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      // Leaving and joining share one critical section. Explicit wait
      // loop: the analysis checks open_ and shutdown_ against mu_ here,
      // which a predicate lambda would hide from it.
      if (helped != nullptr && --helped->helpers == 0) done_cv_.NotifyAll();
      while (!shutdown_ && open_.empty()) work_cv_.Wait(mu_);
      if (shutdown_) return;
      job = open_.front();
      if (--job->slots == 0) open_.erase(open_.begin());
      ++job->helpers;
    }
    Drain(*job);
    helped = job;
  }
}

void ChainPool::RunJob(size_t n, void (*invoke)(void*, size_t), void* ctx,
                       unsigned max_threads) {
  if (n == 0) return;
  if (max_threads == 0) max_threads = NumThreads();
  Job job(invoke, ctx, n);
  // A job with no helper slot is never published: its submitter runs
  // every index in order.
  const auto slots = static_cast<unsigned>(
      std::min<size_t>({max_threads, NumThreads(), n}) - 1);
  if (slots > 0) {
    {
      MutexLock lock(mu_);
      job.slots = slots;
      open_.push_back(&job);
    }
    for (unsigned s = 0; s < slots; ++s) work_cv_.NotifyOne();
  }
  Drain(job);
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    // Out of indices: no further helper may join, and the ones that did
    // finish their last index before `job` leaves this frame.
    std::erase(open_, &job);
    while (job.helpers > 0) done_cv_.Wait(mu_);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace grw
