// grw_serve — the estimation-as-a-service daemon.
//
//   grw_serve [--host H] [--port P] [--workers N] [--queue N]
//             [--engine-threads T] [--tenant-budget B] [--max-steps N]
//             [--max-chains N] [--retry-after-ms MS] [--no-verify]
//             [--resident-budget-mb M] <id>=<graph> ...
//
// Loads every <id>=<graph> binding into a resident SnapshotRegistry
// through GraphSource::Open (`.grwb` snapshots mmap in microseconds and
// share one mapping across ids; sharded graphs — a `grw shard` output
// directory or its MANIFEST.grws — are copied into memory, or served
// out of core under --resident-budget-mb; text edge lists and registry
// dataset names work too), then answers the line/JSON protocol of
// src/serve/protocol.h on a
// TCP socket until SIGTERM/SIGINT, which triggers a graceful drain:
// running and waiting requests finish, new ones are refused, and the
// daemon exits 0 after printing how much it served.
//
//   --port 0          ephemeral port; the bound port is printed on the
//                     "listening" line (scripts parse it)
//   --workers N       estimation jobs running at once (default 4)
//   --queue N         jobs allowed to wait beyond those (default 64); at
//                     most N + --workers requests are in flight, the
//                     rest are shed with RETRY_AFTER. 0 = no waiting.
//   --engine-threads  cap on each job's pool threads, 0 = none (default
//                     0). Jobs share one ChainPool, and each takes at
//                     most its share: about 1/R of the threads while R
//                     jobs run (ChainPool::Share)
//   --tenant-budget B lifetime distinct-query allowance per tenant id
//                     (0 = unlimited)
//   --max-steps /     per-request caps enforced at parse time
//   --max-chains
//   --retry-after-ms  backoff hint in RETRY_AFTER load-shed responses
//                     (default 50); corrupt .grwb snapshots are
//                     quarantined at startup unless --no-verify
//   --resident-budget-mb  > 0: each sharded binding's chains read
//                     through fixed-size neighbor-list caches (the
//                     size does not depend on the value); 0 = copy
//                     the shards into memory at startup. Monolithic
//                     bindings ignore it. Corrupt shards quarantine the
//                     whole binding, exactly like corrupt .grwb files.
//
// Try it:
//   grw_serve --port 7411 web=web.grwb &
//   grw query web --port 7411 --k 4 --steps 100000
//   printf 'PING\nLIST\n' | nc 127.0.0.1 7411

#include <csignal>
#include <cstdio>
#include <ctime>

#include "eval/datasets.h"
#include "graph/format.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fputs(
      "usage: grw_serve [--host H] [--port P] [--workers N] [--queue N]\n"
      "                 [--engine-threads T] [--tenant-budget B]\n"
      "                 [--max-steps N] [--max-chains N]\n"
      "                 [--no-verify] [--retry-after-ms MS]\n"
      "                 [--resident-budget-mb M]\n"
      "                 <id>=<graph> [<id>=<graph> ...]\n"
      "  <graph> is a .grwb snapshot (preferred: zero-copy mmap), a\n"
      "  sharded graph (a `grw shard` output dir or its MANIFEST.grws;\n"
      "  copied into memory, or with --resident-budget-mb M > 0 served\n"
      "  out-of-core through fixed-size per-chain list caches), a text\n"
      "  edge list, or a dataset name from `grw datasets`.\n"
      "  Snapshot payloads are checksum-verified at registration; corrupt\n"
      "  snapshots/shards are quarantined (skipped with a log line).\n"
      "  --no-verify trusts the files and skips the full read.\n"
      "  At most --workers (default 4) requests run at once and --queue\n"
      "  (default 64) more wait; the rest are shed with RETRY_AFTER.\n"
      "  --queue 0 means no waiting, not no service.\n"
      "  Each running request steps its chains on its share of one pool,\n"
      "  about 1/R of its threads while R requests run; --engine-threads\n"
      "  T (default 0 = none) caps that share further.\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();

  grw::serve::ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port =
      static_cast<int>(flags.GetIntInRange("port", 7411, 0, 65535));
  // Flag defaults are the structs' own (SchedulerOptions, RequestLimits).
  grw::serve::SchedulerOptions& sched = options.scheduler;
  sched.workers = flags.GetInt32("workers", sched.workers);
  sched.queue_limit = flags.GetSize("queue", sched.queue_limit);
  sched.engine_threads =
      flags.GetUnsigned("engine-threads", sched.engine_threads);
  sched.tenant_budget = flags.GetUInt64("tenant-budget", sched.tenant_budget);
  sched.limits.max_steps = flags.GetUInt64("max-steps", sched.limits.max_steps);
  sched.limits.max_chains =
      flags.GetInt32("max-chains", sched.limits.max_chains);
  // Backoff hint shed clients receive in RETRY_AFTER responses.
  sched.retry_after_ms =
      flags.GetDouble("retry-after-ms", sched.retry_after_ms);
  if (sched.retry_after_ms < 0.0) {
    std::fprintf(stderr, "grw_serve: --retry-after-ms must be >= 0\n");
    return 2;
  }
  const bool verify = !flags.GetBool("no-verify");
  const uint64_t resident_budget_bytes =
      static_cast<uint64_t>(flags.GetIntInRange("resident-budget-mb", 0, 0,
                                                (int64_t{1} << 44) - 1))
      << 20;

  grw::serve::SnapshotRegistry registry;
  size_t quarantined = 0;
  try {
    for (const std::string& binding : flags.positional()) {
      const size_t eq = binding.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == binding.size()) {
        std::fprintf(stderr,
                     "grw_serve: bad binding '%s' (expected id=graph)\n",
                     binding.c_str());
        return 2;
      }
      const std::string id = binding.substr(0, eq);
      const std::string path = binding.substr(eq + 1);
      if (grw::FindDataset(path).has_value()) {
        registry.RegisterGraph(id, grw::MakeDatasetByName(path, 1.0), path);
      } else {
        try {
          registry.Register(id, path, verify, resident_budget_bytes);
        } catch (const grw::SnapshotCorruptError& e) {
          // Quarantine: the id stays unbound (queries for it get a
          // clean "unknown graph" error), the file(s) — monolithic or
          // any one bad shard — stay on disk for inspection, and the
          // daemon keeps serving the healthy rest.
          std::fprintf(stderr, "[serve] QUARANTINED %s: %s\n", id.c_str(),
                       e.what());
          ++quarantined;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grw_serve: %s\n", e.what());
    return 1;
  }
  if (quarantined > 0 && registry.size() == 0) {
    std::fprintf(stderr,
                 "grw_serve: all %zu snapshot(s) quarantined, refusing to "
                 "serve nothing\n",
                 quarantined);
    return 1;
  }
  for (const auto& entry : registry.List()) {
    std::fprintf(stderr, "[serve] %s: %s (n=%llu m=%llu)\n",
                 entry.id.c_str(), entry.path.c_str(),
                 static_cast<unsigned long long>(entry.nodes),
                 static_cast<unsigned long long>(entry.edges));
  }

  grw::serve::ServeServer server(&registry, options);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grw_serve: %s\n", e.what());
    return 1;
  }
  // Scripts parse this line (--port 0 binds an ephemeral port).
  std::printf("grw_serve listening on %s:%d (%zu graphs, %d workers)\n",
              options.host.c_str(), server.port(), registry.size(),
              options.scheduler.workers);
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (!g_stop) {
    timespec nap{0, 100'000'000};  // 100ms; signals also interrupt it
    nanosleep(&nap, nullptr);
  }

  server.Stop();  // graceful: running and waiting requests finish
  const grw::serve::ServeScheduler::Stats stats = server.stats();
  std::printf(
      "grw_serve drained: %llu requests answered (%llu ok, %llu errors, "
      "%llu shed on overload), shutting down\n",
      static_cast<unsigned long long>(stats.completed + stats.errors),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.rejected_queue));
  return 0;
}
