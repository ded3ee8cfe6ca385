// Fault-injection subsystem tests (util/fault.h) and the end-to-end
// hardening it gates:
//
//   * trigger semantics — spec parsing, nth/once/probability schedules,
//     pattern matching, reconfiguration, counter snapshots — run in
//     EVERY build (FaultSite is directly constructible even when the
//     GRW_FAULT macro compiles to `false`);
//   * the crawl transient-failure model, which is pure simulation and
//     needs no injection build either: estimates bit-identical to a
//     failure-free run at any thread count, only the cost counters move;
//   * client resilience against real misbehaving peers (read timeouts,
//     RETRY_AFTER load sheds, refused connections) via sockets this test
//     controls;
//   * chaos scenarios gated on fault::CompiledIn() — crash-safe
//     SaveGraphBinary (a child process dies mid-write; the destination
//     must never load), mmap truncation detection, one pread(2) per
//     bounded shard miss (counted at the short-read site), and the headline
//     suite: 8 concurrent clients against a server with p=0.01 faults in
//     the IO and scheduler layers, where every reply must be either the
//     bit-identical estimate or a clean structured error.

#include "util/fault.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_ids.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/sharding.h"
#include "graph/source.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/posix_io.h"
#include "util/rng.h"

namespace grw {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// The lazy `.grwb` open.
Graph OpenGrwb(const std::string& path, bool verify = false) {
  return GraphSource::Open(path, {.verify = verify}).graph();
}

// Every test leaves the process-global injector disarmed: the
// configuration outlives the test that installed it otherwise.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Configure("", 0); }
};

// ------------------------------------------------------------- triggers --

TEST_F(FaultTest, SpecParsingRejectsMalformedClauses) {
  const char* bad[] = {
      "no-equals",        "=p0.5",          "site=",
      "site=p",           "site=p2",        "site=p-0.5",
      "site=pz",          "site=nth:",      "site=nth:0",
      "site=nth:x",       "site=once:0",    "site=once:abc",
      "site=frobnicate",  "a=p0.1;b=wat",
  };
  for (const char* spec : bad) {
    EXPECT_THROW(fault::Configure(spec), std::runtime_error) << spec;
  }
  // Good specs install and report back verbatim; a throwing Configure
  // must not have clobbered the previous good one.
  fault::Configure("a=p0.25; b.*=nth:3 ;c=once ;d=once:7;*=p1", 9);
  EXPECT_EQ(fault::ActiveSpec(), "a=p0.25; b.*=nth:3 ;c=once ;d=once:7;*=p1");
  EXPECT_THROW(fault::Configure("broken"), std::runtime_error);
  EXPECT_EQ(fault::ActiveSpec(), "a=p0.25; b.*=nth:3 ;c=once ;d=once:7;*=p1");
  fault::Configure("");
  EXPECT_EQ(fault::ActiveSpec(), "");
}

TEST_F(FaultTest, NthAndOnceSchedulesFireExactlyWhereSpecified) {
  fault::FaultSite nth_site("test.trigger.nth");
  fault::FaultSite once_site("test.trigger.once");
  fault::Configure("test.trigger.nth=nth:3;test.trigger.once=once:5");
  std::vector<int> nth_fires;
  std::vector<int> once_fires;
  for (int call = 1; call <= 12; ++call) {
    if (nth_site.Fire()) nth_fires.push_back(call);
    if (once_site.Fire()) once_fires.push_back(call);
  }
  EXPECT_EQ(nth_fires, (std::vector<int>{3, 6, 9, 12}));
  EXPECT_EQ(once_fires, (std::vector<int>{5}));
  EXPECT_EQ(nth_site.calls(), 12u);
  EXPECT_EQ(nth_site.fired(), 4u);
}

TEST_F(FaultTest, ReconfigureRestartsTheScheduleAtOrdinalOne) {
  fault::FaultSite site("test.trigger.reset");
  fault::Configure("test.trigger.reset=once");
  EXPECT_TRUE(site.Fire());   // call 1 of this schedule
  EXPECT_FALSE(site.Fire());  // once means once
  // Same spec reinstalled: ordinals restart, the site fires again.
  fault::Configure("test.trigger.reset=once");
  EXPECT_TRUE(site.Fire());
  EXPECT_FALSE(site.Fire());
  EXPECT_EQ(site.fired(), 1u);  // fired counter also restarted
}

TEST_F(FaultTest, PatternsMatchExactPrefixAndWildcardFirstWins) {
  fault::FaultSite io_read("test.pattern.io.read");
  fault::FaultSite io_write("test.pattern.io.write");
  fault::FaultSite other("test.pattern.other");
  // First matching clause wins: the exact clause shadows the prefix one
  // for io.read, the prefix catches io.write, the wildcard the rest.
  fault::Configure(
      "test.pattern.io.read=once:2;test.pattern.io.*=once:1;*=nth:4");
  EXPECT_FALSE(io_read.Fire());  // once:2 → not on call 1
  EXPECT_TRUE(io_read.Fire());
  EXPECT_TRUE(io_write.Fire());  // once:1
  EXPECT_FALSE(other.Fire());    // nth:4
  EXPECT_FALSE(other.Fire());
  EXPECT_FALSE(other.Fire());
  EXPECT_TRUE(other.Fire());
  // An unmatched site never fires.
  fault::Configure("something.else.entirely=p1");
  fault::FaultSite unmatched("test.pattern.unmatched");
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(unmatched.Fire());
}

TEST_F(FaultTest, ProbabilityScheduleIsDeterministicPerSeedAndSite) {
  fault::FaultSite site("test.prob.determinism");
  const auto schedule = [&](uint64_t seed, int calls) {
    fault::Configure("test.prob.determinism=p0.2", seed);
    std::vector<bool> fires;
    for (int i = 0; i < calls; ++i) fires.push_back(site.Fire());
    return fires;
  };
  const std::vector<bool> a = schedule(7, 400);
  const std::vector<bool> b = schedule(7, 400);
  EXPECT_EQ(a, b);  // same seed → identical schedule
  const std::vector<bool> c = schedule(8, 400);
  EXPECT_NE(a, c);  // different seed → different schedule
  // The rate is in the right ballpark (400 draws at p=0.2: mean 80).
  const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 40);
  EXPECT_LT(fired, 130);
  // p1 always fires, p0 never.
  fault::Configure("test.prob.determinism=p1");
  EXPECT_TRUE(site.Fire());
  fault::Configure("test.prob.determinism=p0");
  EXPECT_FALSE(site.Fire());
}

TEST_F(FaultTest, ScheduleIsThreadCountInvariantAndSnapshotCounts) {
  // The nth schedule is a function of the call ordinal, not the calling
  // thread: 8 threads hammering one site fire exactly calls/nth times.
  fault::FaultSite site("test.threads.invariant");
  fault::Configure("test.threads.invariant=nth:10");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (site.Fire()) fired.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), kThreads * kPerThread / 10);
  // Snapshot() exposes the same counters for coverage assertions.
  bool found = false;
  for (const fault::SiteCounts& counts : fault::Snapshot()) {
    if (counts.site != "test.threads.invariant") continue;
    found = true;
    EXPECT_EQ(counts.calls, uint64_t{kThreads * kPerThread});
    EXPECT_EQ(counts.fired, uint64_t{kThreads * kPerThread / 10});
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------- crawl failure model --

TEST_F(FaultTest, CrawlFailureModelKeepsEstimatesBitIdentical) {
  Rng rng(23);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
  const EstimatorConfig config{4, 2, true, false};

  EngineOptions clean;
  clean.chains = 4;
  clean.max_steps = 5000;
  clean.crawl.emplace();
  clean.crawl->cache_entries = 64;
  const EngineResult reference =
      EstimationEngine(g, config, clean).Run();

  EngineOptions faulty = clean;
  faulty.crawl->failure.fail_prob = 0.2;
  faulty.crawl->failure.max_retries = 3;
  faulty.crawl->failure.backoff_base_us = 100.0;

  CrawlStats first_stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions options = faulty;
    options.threads = threads;
    const EngineResult run = EstimationEngine(g, config, options).Run();
    // The failure model is cost-only: the estimate is the failure-free
    // one, bit for bit, at every thread count.
    ASSERT_EQ(run.merged.concentrations.size(),
              reference.merged.concentrations.size());
    for (size_t i = 0; i < run.merged.concentrations.size(); ++i) {
      EXPECT_EQ(run.merged.concentrations[i],
                reference.merged.concentrations[i])
          << "threads=" << threads << " type " << i;
    }
    // ...but the resilience counters actually moved, and they are
    // themselves deterministic (per-chain failure RNG): thread count
    // must not change the simulated failure history either.
    EXPECT_GT(run.access.transient_failures, 0u) << threads;
    EXPECT_GT(run.access.retries, 0u) << threads;
    EXPECT_GT(run.access.backoff_latency_us, 0.0) << threads;
    if (threads == 1u) {
      first_stats = run.access;
    } else {
      EXPECT_EQ(run.access.transient_failures,
                first_stats.transient_failures);
      EXPECT_EQ(run.access.retries, first_stats.retries);
      EXPECT_EQ(run.access.giveups, first_stats.giveups);
      EXPECT_EQ(run.access.backoff_latency_us,
                first_stats.backoff_latency_us);
    }
  }
  // Zero retries allowed: every failure streak becomes a giveup (the
  // slow-path fallback), still with bit-identical estimates.
  EngineOptions no_retries = faulty;
  no_retries.crawl->failure.fail_prob = 0.5;
  no_retries.crawl->failure.max_retries = 0;
  const EngineResult giveup_run =
      EstimationEngine(g, config, no_retries).Run();
  EXPECT_GT(giveup_run.access.giveups, 0u);
  for (size_t i = 0; i < giveup_run.merged.concentrations.size(); ++i) {
    EXPECT_EQ(giveup_run.merged.concentrations[i],
              reference.merged.concentrations[i]);
  }
}

// ---------------------------------------------------- sharded reads --

TEST_F(FaultTest, ShardReadFaultsKeepEstimatesBitIdentical) {
  // A bounded sharded estimate reads every cache miss with io::ReadAt.
  // Injected EINTR and short reads (p = 0.01 on each site) are retried
  // inside it, so the estimate is the fault-free one, bit for bit. In a
  // build without injection the sites never fire and the run is simply
  // repeated.
  Rng rng(43);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
  const std::string dir = TempPath("grw_fault_shards");
  fs::remove_all(dir);
  ShardingOptions sharding;
  sharding.num_shards = 4;
  const ShardManifest manifest = WriteShardedGraph(g, dir, sharding);
  const GraphSource source = GraphSource::Open(
      dir, {.resident_budget_bytes = manifest.TotalShardBytes() / 4});
  const EstimatorConfig config{4, 2, true, false};
  EngineOptions options;
  options.chains = 4;
  options.threads = 2;
  options.max_steps = 4000;
  const EngineResult clean =
      EstimationEngine(source.shards(), config, options).Run();

  fault::Configure("io.pread.eintr=p0.01;io.pread.short=p0.01", 2027);
  const EngineResult faulty =
      EstimationEngine(source.shards(), config, options).Run();
  const std::vector<fault::SiteCounts> counts = fault::Snapshot();
  fault::Configure("");

  EXPECT_EQ(faulty.merged.weights, clean.merged.weights);
  EXPECT_EQ(faulty.merged.concentrations, clean.merged.concentrations);
  if (fault::CompiledIn()) {
    for (const char* site : {"io.pread.eintr", "io.pread.short"}) {
      const auto it = std::find_if(
          counts.begin(), counts.end(),
          [&](const fault::SiteCounts& c) { return c.site == site; });
      ASSERT_NE(it, counts.end()) << site;
      EXPECT_GT(it->fired, 0u) << site;
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- client resilience --

// A listener this test controls: bound and listening, but nothing is
// accepted (or what is accepted is scripted by the test body).
class ScriptedListener {
 public:
  ScriptedListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~ScriptedListener() {
    if (conn_ >= 0) ::close(conn_);
    if (fd_ >= 0) ::close(fd_);
  }

  int port() const { return port_; }

  int Accept() {
    conn_ = ::accept(fd_, nullptr, nullptr);
    return conn_;
  }

  // Reads one newline-terminated line off the accepted connection.
  std::string ReadLine() {
    char chunk[512];
    while (buffer_.find('\n') == std::string::npos) {
      const io::IoResult r =
          io::ReadSome(conn_, chunk, sizeof(chunk), 5000);
      if (!r.ok()) return {};
      buffer_.append(chunk, r.bytes);
    }
    const size_t nl = buffer_.find('\n');
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  void WriteLine(const std::string& line) {
    EXPECT_TRUE(io::WriteAll(conn_, line + "\n", 5000).ok());
  }

 private:
  int fd_ = -1;
  int conn_ = -1;
  int port_ = 0;
  std::string buffer_;
};

TEST_F(FaultTest, QueryClientReadTimeoutFiresAgainstSilentServer) {
  // The listener never answers (it never even accepts; the kernel
  // completes the handshake from the backlog). A bounded client comes
  // back with a descriptive timeout instead of hanging forever.
  ScriptedListener listener;
  serve::QueryClient::Options options;
  options.connect_timeout_ms = 2000;
  options.read_timeout_ms = 150;
  serve::QueryClient client("127.0.0.1", listener.port(), options);
  try {
    client.RoundTrip("PING");
    FAIL() << "expected a read timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no response after 150ms"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, QueryWithRetryHonorsRetryAfterThenSucceeds) {
  ScriptedListener listener;
  // Scripted peer: shed the first request with RETRY_AFTER, answer the
  // resend for real — on the SAME connection (a shed leaves the stream
  // healthy; the client must not reconnect).
  std::thread peer([&listener] {
    ASSERT_GE(listener.Accept(), 0);
    EXPECT_EQ(listener.ReadLine(), "PING");
    listener.WriteLine(serve::OverloadedResponse("busy", 5.0));
    EXPECT_EQ(listener.ReadLine(), "PING");
    listener.WriteLine(serve::PingResponse(serve::RequestLimits{}));
  });
  serve::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_ms = 1.0;
  policy.backoff_max_ms = 50.0;
  const serve::QueryOutcome outcome = serve::QueryWithRetry(
      "127.0.0.1", listener.port(), "PING", {}, policy);
  peer.join();
  EXPECT_FALSE(outcome.transport_error) << outcome.error;
  EXPECT_EQ(outcome.response, serve::PingResponse(serve::RequestLimits{}));
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.retries, 1);
}

TEST_F(FaultTest, QueryWithRetryReportsTransportFailureAfterRetries) {
  // Nothing listens on this port (bind+close to find a free one).
  int port;
  {
    ScriptedListener probe;
    port = probe.port();
  }
  serve::RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ms = 1.0;
  policy.backoff_max_ms = 5.0;
  serve::QueryClient::Options options;
  options.connect_timeout_ms = 500;
  const serve::QueryOutcome outcome =
      serve::QueryWithRetry("127.0.0.1", port, "PING", options, policy);
  EXPECT_TRUE(outcome.transport_error);
  EXPECT_TRUE(outcome.response.empty());
  EXPECT_EQ(outcome.attempts, 3);  // max_retries + 1
  EXPECT_NE(outcome.error.find("cannot connect"), std::string::npos)
      << outcome.error;
}

TEST_F(FaultTest, NonRetryableServerErrorsAreFinal) {
  ScriptedListener listener;
  std::thread peer([&listener] {
    ASSERT_GE(listener.Accept(), 0);
    EXPECT_FALSE(listener.ReadLine().empty());
    listener.WriteLine(serve::ErrorResponse("unknown graph 'ghost'"));
  });
  serve::RetryPolicy policy;
  policy.backoff_base_ms = 1.0;
  const serve::QueryOutcome outcome = serve::QueryWithRetry(
      "127.0.0.1", listener.port(), "ESTIMATE graph=ghost k=3", {}, policy);
  peer.join();
  EXPECT_FALSE(outcome.transport_error);
  EXPECT_EQ(outcome.attempts, 1);  // a final answer is not resent
  EXPECT_EQ(outcome.response, serve::ErrorResponse("unknown graph 'ghost'"));
}

// --------------------------------------------- injected chaos (gated) --

TEST_F(FaultTest, SaveCrashNeverLeavesALoadableDestination) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "needs -DGRW_FAULT_INJECTION=1 (chaos build)";
  }
  const std::string path = TempPath("grw_fault_crash.grwb");
  fs::remove(path);

  // The child dies (simulated kill -9) between writing the offsets array
  // and the neighbor data — the worst moment: a straight write-in-place
  // would leave a header that validates over garbage.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fault::Configure("snapshot.save.crash=once");
    SaveGraphBinary(KarateClub(), path);
    ::_exit(0);  // not reached: the site _exit(137)s mid-save
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);

  // The destination path must not exist at all: the temp file was never
  // renamed over it. Any leftover temp must not pass for a snapshot.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_THROW(OpenGrwb(path), std::exception);
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("grw_fault_crash.grwb.tmp.", 0) == 0) {
      // The leftover carries the magic (it IS an interrupted .grwb
      // write) but must fail validation — nothing can load it as a
      // snapshot.
      EXPECT_THROW(OpenGrwb(entry.path().string()),
                   SnapshotCorruptError)
          << name;
      fs::remove(entry.path());
    }
  }
}

TEST_F(FaultTest, SaveWriteFailureCleansUpAndRetrySucceeds) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "needs -DGRW_FAULT_INJECTION=1 (chaos build)";
  }
  const std::string path = TempPath("grw_fault_savefail.grwb");
  fs::remove(path);
  fault::Configure("snapshot.save.write=once");
  EXPECT_THROW(SaveGraphBinary(KarateClub(), path), std::runtime_error);
  EXPECT_FALSE(fs::exists(path));  // nothing half-written at the target
  // The failed attempt unlinked its temp file.
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(
                  "grw_fault_savefail.grwb.tmp.", 0),
              0u);
  }
  // Disarmed, the same save succeeds and round-trips.
  fault::Configure("");
  SaveGraphBinary(KarateClub(), path);
  const Graph loaded = OpenGrwb(path, /*verify=*/true);
  EXPECT_EQ(loaded.Summary(), KarateClub().Summary());
  fs::remove(path);
}

TEST_F(FaultTest, MmapShrinkDetectionRefusesTheMapping) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "needs -DGRW_FAULT_INJECTION=1 (chaos build)";
  }
  const std::string path = TempPath("grw_fault_shrink.grwb");
  SaveGraphBinary(KarateClub(), path);
  fault::Configure("mmap.shrink=once");
  try {
    OpenGrwb(path);
    FAIL() << "expected the shrink check to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated while mapping"),
              std::string::npos)
        << e.what();
  }
  fault::Configure("");
  EXPECT_NO_THROW(OpenGrwb(path));
  fs::remove(path);
}

TEST_F(FaultTest, ChaosEightClientsZeroWrongAnswers) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "needs -DGRW_FAULT_INJECTION=1 (chaos build)";
  }
  Rng rng(31);
  const Graph fixture =
      LargestConnectedComponent(HolmeKim(500, 4, 0.5, rng));

  // The reference answer, computed before any fault is armed.
  const std::string line = "ESTIMATE graph=fix k=4 steps=8000 chains=2";
  const auto parsed = serve::ParseRequestLine(line, serve::RequestLimits{});
  ASSERT_TRUE(parsed.request.has_value());
  const serve::EstimateRequest& req = parsed.request->estimate;
  const EngineResult direct =
      EstimationEngine(fixture, req.config, serve::ToEngineOptions(req))
          .Run();
  std::vector<std::string> expected;
  for (const int id : PaperOrder(4)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  direct.merged.concentrations[id]);
    expected.emplace_back(buf);
  }

  serve::SnapshotRegistry registry;
  registry.RegisterGraph("fix", fixture);
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.scheduler.workers = 4;
  serve::ServeServer server(&registry, server_options);
  server.Start();

  // p=0.01 faults across the serve path: admission sheds, worker blowups,
  // injected EINTR and short writes in every socket loop. None of these
  // may ever produce a WRONG answer — only the right one or a clean
  // structured error.
  fault::Configure(
      "serve.admit=p0.01;serve.job=p0.01;io.read.eintr=p0.01;"
      "io.write.eintr=p0.01;io.write.short=p0.01",
      2026);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::atomic<int> correct{0};
  std::atomic<int> structured_errors{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::RetryPolicy policy;
      policy.max_retries = 6;
      policy.backoff_base_ms = 1.0;
      policy.backoff_max_ms = 20.0;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const serve::QueryOutcome outcome = serve::QueryWithRetry(
            "127.0.0.1", server.port(), line, {}, policy);
        ASSERT_FALSE(outcome.transport_error) << outcome.error;
        const auto json = serve::ParseJson(outcome.response);
        ASSERT_TRUE(json.has_value()) << outcome.response;
        const serve::JsonValue* ok = json->Find("ok");
        ASSERT_NE(ok, nullptr) << outcome.response;
        if (!ok->IsTrue()) {
          // A structured error with a non-empty message is an acceptable
          // outcome under injected faults — a wrong estimate is not.
          const serve::JsonValue* error = json->Find("error");
          ASSERT_NE(error, nullptr) << outcome.response;
          ASSERT_FALSE(error->str.empty()) << outcome.response;
          structured_errors.fetch_add(1);
          continue;
        }
        const serve::JsonValue* conc = json->Find("concentrations");
        ASSERT_NE(conc, nullptr);
        ASSERT_EQ(conc->items.size(), expected.size());
        bool identical = true;
        for (size_t i = 0; i < expected.size(); ++i) {
          if (conc->items[i].raw != expected[i]) identical = false;
        }
        if (identical) {
          correct.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  fault::Configure("");
  server.Stop();

  EXPECT_EQ(wrong.load(), 0);  // the headline: zero incorrect replies
  EXPECT_GT(correct.load(), 0);
  EXPECT_EQ(correct.load() + structured_errors.load(),
            kClients * kQueriesPerClient);
  // The chaos run actually exercised the injected layers.
  uint64_t io_calls = 0;
  for (const fault::SiteCounts& counts : fault::Snapshot()) {
    if (counts.site.rfind("io.", 0) == 0 ||
        counts.site.rfind("serve.", 0) == 0) {
      io_calls += counts.calls;
    }
  }
  EXPECT_GT(io_calls, 0u);
}

// Calls io::ReadAt has made to the short-read site so far: one per
// pread(2) while no fault is armed.
uint64_t PreadCalls() {
  for (const fault::SiteCounts& counts : fault::Snapshot()) {
    if (counts.site == "io.pread.short") return counts.calls;
  }
  return 0;  // not reached yet
}

TEST_F(FaultTest, BoundedMissIsOnePread) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "needs -DGRW_FAULT_INJECTION=1 (chaos build)";
  }
  // A bounded miss reads the row's offsets pair from the shard mapping
  // and only its list with pread(2): a single-thread run makes exactly
  // one pread per fault it counts.
  Rng rng(47);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
  const std::string dir = TempPath("grw_fault_one_pread");
  fs::remove_all(dir);
  ShardingOptions sharding;
  sharding.num_shards = 4;
  const ShardManifest manifest = WriteShardedGraph(g, dir, sharding);
  const GraphSource source = GraphSource::Open(
      dir, {.resident_budget_bytes = manifest.TotalShardBytes() / 4});
  EngineOptions options;
  options.chains = 4;
  options.threads = 1;
  options.max_steps = 4000;
  // The constructor's probe reads too; count from after it.
  EstimationEngine engine(source.shards(), {4, 2, true, false}, options);
  const uint64_t before = PreadCalls();
  const EngineResult run = engine.Run();
  EXPECT_GT(run.shards.faults, 0u);
  EXPECT_EQ(PreadCalls() - before, run.shards.faults);
  fs::remove_all(dir);
}

TEST_F(FaultTest, CrawlFetchSiteChargesResilienceCounters) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "needs -DGRW_FAULT_INJECTION=1 (chaos build)";
  }
  Rng rng(41);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 4, 0.5, rng));
  const EstimatorConfig config{3, 1, true, true};
  EngineOptions options;
  options.max_steps = 3000;
  options.crawl.emplace();

  const EngineResult reference = EstimationEngine(g, config, options).Run();
  fault::Configure("crawl.fetch=nth:5");
  const EngineResult faulted = EstimationEngine(g, config, options).Run();
  fault::Configure("");

  // Injected fetch failures charge the resilience counters but never the
  // data: the estimate is bit-identical to the unfaulted run.
  EXPECT_GT(faulted.access.transient_failures, 0u);
  EXPECT_GT(faulted.access.retries, 0u);
  ASSERT_EQ(faulted.merged.concentrations.size(),
            reference.merged.concentrations.size());
  for (size_t i = 0; i < faulted.merged.concentrations.size(); ++i) {
    EXPECT_EQ(faulted.merged.concentrations[i],
              reference.merged.concentrations[i]);
  }
}

}  // namespace
}  // namespace grw
