// Concurrency stress for the serve layer, written to be run under
// ThreadSanitizer (the CI `tsan` job builds with -DGRW_TSAN=ON and runs
// the `stress` ctest label): many client threads hammer the scheduler and
// the TCP server with deadline-bounded queries while a drain / Stop()
// races them mid-flight. Assertions are deterministic — every response is
// a complete single-line JSON object, counters reconcile after the drain
// — while the interleavings TSan checks vary run to run.
//
// Sized for the small CI runners: a few hundred requests over a
// few-hundred-node fixture, seconds per test, not minutes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "util/rng.h"

namespace grw::serve {
namespace {

Graph SmallFixture() {
  Rng rng(23);
  return LargestConnectedComponent(HolmeKim(300, 4, 0.5, rng));
}

bool LooksLikeJsonObject(const std::string& s) {
  return s.size() >= 2 && s.front() == '{' && s.back() == '}';
}

TEST(ServeStressTest, ConcurrentHandleLineRacesDrain) {
  SnapshotRegistry registry;
  registry.RegisterGraph("g", SmallFixture());
  SchedulerOptions options;
  options.workers = 4;
  options.queue_limit = 8;  // small, so overload shedding is exercised
  ServeScheduler scheduler(&registry, options);

  constexpr int kThreads = 6;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> responses{0};
  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        // Mix free-running, deadline-cancelled and malformed requests;
        // tenants share budget accounting across threads.
        std::string line;
        switch ((t + r) % 4) {
          case 0:
            line = "ESTIMATE graph=g k=3 steps=2000 tenant=acme";
            break;
          case 1:
            line = "ESTIMATE graph=g k=4 steps=20000 deadline_ms=1";
            break;
          case 2:
            line = "ESTIMATE graph=g k=3 steps=1000 chains=2";
            break;
          default:
            line = "ESTIMATE graph=g k=99";  // parse error path
            break;
        }
        const std::string response = scheduler.HandleLine(line);
        responses.fetch_add(1);
        if (!LooksLikeJsonObject(response)) malformed.fetch_add(1);
      }
    });
  }
  // Drain races the clients: late submissions get a clean "server
  // draining" error, in-flight jobs finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  scheduler.Drain();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_EQ(responses.load(), kThreads * kRequestsPerThread);
  const ServeScheduler::Stats stats = scheduler.stats();
  // Every accepted job was answered exactly once, one way or the other.
  EXPECT_LE(stats.completed, stats.accepted);
  EXPECT_EQ(stats.completed + stats.errors,
            static_cast<uint64_t>(responses.load()));
}

TEST(ServeStressTest, TcpClientsRaceServerStop) {
  SnapshotRegistry registry;
  registry.RegisterGraph("g", SmallFixture());
  ServerOptions options;
  options.port = 0;
  options.scheduler.workers = 4;
  ServeServer server(&registry, options);
  server.Start();

  constexpr int kClients = 4;
  std::atomic<int> ok_responses{0};
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        QueryClient client("127.0.0.1", server.port());
        for (int r = 0; r < 50; ++r) {
          const std::string response =
              client.RoundTrip("ESTIMATE graph=g k=3 steps=1000");
          if (LooksLikeJsonObject(response)) {
            ok_responses.fetch_add(1);
          } else {
            bad_responses.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        // Server hung up mid-exchange: the expected outcome for clients
        // still streaming when Stop() lands. Partial responses never
        // surface — RoundTrip either returns a full line or throws.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();  // races the in-flight round trips
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GE(ok_responses.load(), 1);  // some requests landed before Stop
  const ServeScheduler::Stats stats = server.stats();
  EXPECT_GE(stats.completed + stats.errors,
            static_cast<uint64_t>(ok_responses.load()));
  EXPECT_FALSE(server.running());
}

TEST(ServeStressTest, StopIsIdempotentUnderConcurrentCallers) {
  SnapshotRegistry registry;
  registry.RegisterGraph("g", SmallFixture());
  ServerOptions options;
  options.port = 0;
  options.scheduler.workers = 2;
  ServeServer server(&registry, options);
  server.Start();

  std::vector<std::thread> stoppers;
  for (int i = 0; i < 3; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_FALSE(server.running());
  server.Stop();  // and once more after the fact
}

}  // namespace
}  // namespace grw::serve
