// Annotated synchronization primitives: the only lock layer in the repo.
//
// Every mutex and condition variable in the codebase goes through these
// wrappers so that locking discipline is *machine-checked*, not hand
// audited. The wrappers carry Clang thread-safety capability attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html): a shared field
// declares which lock guards it with GRW_GUARDED_BY, functions declare
// what they acquire/require with GRW_ACQUIRE / GRW_REQUIRES, and a Clang
// build with -DGRW_THREAD_SAFETY=ON (-Wthread-safety -Werror; the CI
// `thread-safety` job) turns any unguarded access into a compile error.
// Under GCC, or Clang without the flag, the attributes expand to nothing
// and the wrappers compile to bare std::mutex / std::condition_variable.
//
// Two invariants are additionally checked at *runtime* (cheap relaxed
// atomics, active whenever assertions are — this repo keeps NDEBUG
// stripped even in release builds): recursive Lock() by the owning thread
// and Unlock() by a non-owner abort with a diagnostic instead of
// deadlocking or corrupting the mutex. tests/sync_test.cpp death-tests
// both.
//
// Project rules, enforced greppably by tools/lint_invariants.py:
//   * no raw std::mutex / std::condition_variable outside this header;
//   * condition waits over guarded fields are written as explicit
//     `while (!cond) cv.Wait(mu);` loops in functions that hold the lock
//     (the analysis cannot see into predicate lambdas — a lambda would
//     need GRW_NO_THREAD_SAFETY_ANALYSIS, silencing exactly the check we
//     want; the predicate overload below is for unguarded test plumbing).
//
// Lock ordering (see docs/ARCHITECTURE.md "Concurrency invariants"):
// scheduler mutex -> registry mutex -> pool mutex. Never acquire in the
// opposite direction. No object holds two of its own locks at once; one
// that must declares the order with GRW_ACQUIRED_BEFORE, which the
// analysis checks.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

// ------------------------------------------------------------------------
// Capability attribute macros. GRW_THREAD_ANNOTATION expands only under
// Clang (GCC has no thread-safety analysis and warns on the attributes).
#if defined(__clang__) && !defined(SWIG)
#define GRW_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GRW_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" names it in diagnostics).
#define GRW_CAPABILITY(x) GRW_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define GRW_SCOPED_CAPABILITY GRW_THREAD_ANNOTATION(scoped_lockable)
/// Field access requires holding the named mutex.
#define GRW_GUARDED_BY(x) GRW_THREAD_ANNOTATION(guarded_by(x))
/// Pointee access requires holding the named mutex.
#define GRW_PT_GUARDED_BY(x) GRW_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (and did not hold it on entry).
#define GRW_ACQUIRE(...) \
  GRW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry).
#define GRW_RELEASE(...) \
  GRW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Caller must hold the capability across the call.
#define GRW_REQUIRES(...) \
  GRW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention).
#define GRW_EXCLUDES(...) GRW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Declares lock-ordering edges checked by the analysis.
#define GRW_ACQUIRED_AFTER(...) \
  GRW_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define GRW_ACQUIRED_BEFORE(...) \
  GRW_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define GRW_RETURN_CAPABILITY(x) GRW_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch — use only with a comment explaining why the analysis
/// cannot express the pattern. tools/lint_invariants.py counts uses.
#define GRW_NO_THREAD_SAFETY_ANALYSIS \
  GRW_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace grw {

namespace sync_internal {

// Abort with a diagnostic; never returns. Out-of-line formatting keeps the
// inlined fast path to two relaxed atomic ops.
[[noreturn]] inline void Die(const char* what) {
  std::fprintf(stderr, "grw::Mutex misuse: %s\n", what);
  std::abort();
}

}  // namespace sync_internal

class CondVar;

/// std::mutex with a capability annotation and runtime misuse checks.
/// Non-recursive by contract; the owner check makes a recursive Lock()
/// abort with a message instead of deadlocking silently.
class GRW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GRW_ACQUIRE() {
    // Checked *before* the blocking lock: by construction owner_ only
    // equals this thread's id while this thread holds the mutex, so a
    // match here is a guaranteed self-deadlock.
    if (owner_.load(std::memory_order_relaxed) ==
        std::this_thread::get_id()) {
      sync_internal::Die("recursive Lock() by the owning thread");
    }
    mu_.lock();
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void Unlock() GRW_RELEASE() {
    if (owner_.load(std::memory_order_relaxed) !=
        std::this_thread::get_id()) {
      sync_internal::Die("Unlock() by a thread that does not hold the lock");
    }
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    mu_.unlock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  // Diagnostic state only — protected accesses are ordered by mu_ itself;
  // the relaxed loads in the misuse checks read either a stale foreign id
  // or this thread's own (always current) id, both of which answer the
  // "do *I* hold it?" question correctly.
  std::atomic<std::thread::id> owner_{std::thread::id()};
};

/// RAII lock for the scope of a block:  MutexLock lock(mu_);
/// Scoped-capability annotated, so the analysis knows the lock is held
/// until the closing brace.
class GRW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GRW_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() GRW_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to grw::Mutex. Wait() names the mutex it
/// operates on, so the analysis checks the caller actually holds it —
/// the classic wait-without-lock bug cannot compile under
/// GRW_THREAD_SAFETY.
///
/// A CondVar whose waiter may destroy it on wakeup (a destructor draining
/// until nothing is in flight, a stack-local handshake) must be notified
/// inside the critical section that sets the condition: notified after
/// the unlock, the waiter can return and free it first, and NotifyOne
/// signals freed memory. Only a CondVar whose owner outlives every waiter
/// may be notified after the unlock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires before returning.
  /// Spurious wakeups happen; always call inside a `while (!cond)` loop.
  void Wait(Mutex& mu) GRW_REQUIRES(mu) {
    // The caller owns mu (checked by GRW_REQUIRES statically and by the
    // owner field dynamically); adopt it for the wait, which unlocks
    // around the block. Owner bookkeeping must clear before the unlock
    // and restore after the relock.
    if (mu.owner_.load(std::memory_order_relaxed) !=
        std::this_thread::get_id()) {
      sync_internal::Die("CondVar::Wait() without holding the mutex");
    }
    mu.owner_.store(std::thread::id(), std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
    mu.owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  /// Predicate form, for *unguarded* predicates (test plumbing, locals).
  /// Product code waiting on GRW_GUARDED_BY fields writes the explicit
  /// `while (!cond) cv.Wait(mu);` loop instead — the analysis checks the
  /// enclosing function's lock set but cannot see into a lambda.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) GRW_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace grw
