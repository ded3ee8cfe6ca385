// Deterministic, seed-driven fault injection.
//
// Robustness code is only as good as the failures it has seen. This
// module lets tests and CI chaos runs inject failures at named sites
// scattered through the storage / crawl / serve stack, with three
// properties the usual `rand() % 100` hack lacks:
//
//   * DETERMINISTIC — whether call #k at site S fires is a pure
//     function of (seed, S, k): `hash(seed, site, ordinal) < p`. A
//     failing chaos run replays exactly from its seed, regardless of
//     thread interleaving (the ordinal is an atomic counter, so which
//     *thread* sees the fault may vary, but the fault schedule per
//     site does not).
//   * FREE WHEN OFF — the `GRW_FAULT(site)` macro expands to the
//     literal `false` unless the build sets -DGRW_FAULT_INJECTION
//     (CMake option of the same name, default OFF). The tuned hot
//     paths from PRs 4/6 compile to identical code in normal builds;
//     the release-smoke gates run with the option off and are unaffected.
//   * CONFIGURABLE WITHOUT RECOMPILING — a spec string names sites and
//     triggers, read from the GRW_FAULT_SPEC / GRW_FAULT_SEED
//     environment on first use (so `GRW_FAULT_SPEC='*=p0.01' grw ...`
//     just works in CI scripts) or set programmatically by tests.
//
// Spec grammar (';'-separated clauses, each `pattern=trigger`):
//
//   grwb.write.fsync=p0.01      fire each call with probability 0.01
//   serve.admit=nth:7           fire calls 7, 14, 21, ...
//   grwb.write.crash=once:3     fire exactly once, on call 3 (once == once:1)
//   net.*=p0.05                 '*' suffix matches any site with the prefix
//   *=p0.01                     every site
//
// The first matching clause wins (most-specific-first is the caller's
// responsibility). A site with no matching clause never fires.
//
// Call sites decide what "fire" means — throw, return an error, simulate
// EINTR, _exit() to fake a crash:
//
//   if (GRW_FAULT("grwb.write.fsync")) { errno = EIO; return -1; }
//
// FaultSite objects register themselves in a global list so the chaos
// suite can enumerate coverage (`fault::Snapshot()`) and assert every
// registered site actually fired during a run.
//
// The sites, by layer:
//
//   io.read.eintr / io.read.fail        spurious EINTR / hard EIO on read
//   io.write.eintr / .fail / .short     EINTR, EIO, or a partial write
//   io.connect.fail / io.fsync.fail     ECONNREFUSED on connect, EIO on fsync
//   io.pread.eintr / io.pread.short     EINTR, or a one-byte read, in ReadAt
//                                       (bounded shard reads)
//   snapshot.save.open / .write /       temp-file open / write / final
//     .rename                           rename fails (.grwb, shards, manifest)
//   snapshot.save.crash                 _exit(137) before the last part is
//                                       written: a real crash
//   mmap.shrink                         the file looks truncated between
//                                       stat and mmap
//   crawl.fetch                         one transient crawl fetch failure
//   serve.admit / serve.job             admission-time load shed /
//                                       in-flight job failure

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace grw::fault {

/// True when the build compiled injection sites in (-DGRW_FAULT_INJECTION).
/// Tests use this to gate scenarios that need in-product sites armed.
constexpr bool CompiledIn() {
#if defined(GRW_FAULT_INJECTION)
  return true;
#else
  return false;
#endif
}

/// Replaces the active configuration. `spec` follows the grammar above
/// (empty = nothing fires); `seed` drives the probability-trigger hash.
/// Takes effect for subsequent Fire() calls on every site (sites re-resolve
/// their triggers lazily via a config epoch). Also resets per-site call /
/// fired counters so a test gets a clean schedule. Not safe to call
/// concurrently with itself; safe to call while other threads Fire().
void Configure(const std::string& spec, uint64_t seed = 0);

/// Configure() from the GRW_FAULT_SPEC / GRW_FAULT_SEED environment
/// variables (missing spec = disabled). Called automatically on the
/// first Fire() if Configure() was never invoked, so binaries need no
/// explicit init — but a long-lived daemon may call it eagerly to log
/// the active spec at startup.
void ConfigureFromEnv();

/// The spec string most recently installed ("" when disabled).
std::string ActiveSpec();

/// Per-site observability for chaos-coverage assertions.
struct SiteCounts {
  std::string site;
  uint64_t calls = 0;
  uint64_t fired = 0;
};

/// Counters for every site constructed so far, in registration order.
std::vector<SiteCounts> Snapshot();

/// One injection point. Normally instantiated via the GRW_FAULT macro
/// (function-local static, registered on first execution); tests may
/// construct sites directly to exercise trigger semantics even in
/// builds where the macro is compiled out.
class FaultSite {
 public:
  explicit FaultSite(const char* name);
  /// Deregisters. Macro sites are function-local statics and live for
  /// the process; this matters for test-constructed sites on the stack,
  /// which must not leave dangling pointers in the registry.
  ~FaultSite();

  FaultSite(const FaultSite&) = delete;
  FaultSite& operator=(const FaultSite&) = delete;

  /// Counts the call and reports whether the active configuration says
  /// this call fails. Thread-safe; deterministic per (seed, name, call
  /// ordinal).
  bool Fire();

  const char* name() const { return name_; }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

  /// Restarts the call ordinal at 1 and clears the fired count for a
  /// fresh schedule. Called by Configure() (which holds the registry
  /// lock) for every registered site.
  void ResetScheduleLocked();

 private:
  struct Triggers {
    bool probability = false;
    double p = 0.0;
    uint64_t nth = 0;      // fire when ordinal % nth == 0
    uint64_t once_at = 0;  // fire when ordinal == once_at
  };

  void Resolve();

  const char* name_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> fired_{0};
  // Counter baseline at the last Configure(): ordinals restart at 1 per
  // configuration so `once:3` means call 3 of *this* schedule.
  std::atomic<uint64_t> base_{0};
  std::atomic<uint64_t> epoch_{0};  // config generation triggers_ reflects
  Triggers triggers_;               // written under the registry mutex
  uint64_t seed_ = 0;
};

}  // namespace grw::fault

// The one injection-point spelling. Inside an `if`, costs one static
// init + an atomic increment in chaos builds and nothing at all in
// normal builds — the branch folds away on the constant.
#if defined(GRW_FAULT_INJECTION)
#define GRW_FAULT(site_name)                          \
  ([]() -> bool {                                     \
    static ::grw::fault::FaultSite grw_fault_site_(site_name); \
    return grw_fault_site_.Fire();                    \
  }())
#else
#define GRW_FAULT(site_name) (false)
#endif
