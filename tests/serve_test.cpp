// Serve-layer tests: JSON round trips, strict protocol parsing (fuzz:
// truncated lines, bad fields, huge budgets — always an error response,
// never a crash), snapshot registry sharing, scheduler admission /
// tenant budgets / deadlines, and the TCP server end to end: concurrent
// clients get the direct in-process engine run's bytes, and a k = 6
// request does not take the daemon down. Served answers in every access
// mode are checked against the CLI path by tests/conformance_test.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_ids.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/sharding.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "util/chain_pool.h"
#include "util/rng.h"

namespace grw::serve {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServeJsonTest, EscapingCoversControlBytesAndRoundTrips) {
  const std::string nasty = std::string("a\x01\x1f\"\\\n\t\rz");
  const std::string quoted = JsonQuote(nasty);
  EXPECT_NE(quoted.find("\\u0001"), std::string::npos);
  EXPECT_NE(quoted.find("\\u001f"), std::string::npos);
  const auto parsed = ParseJson(quoted);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->type, JsonValue::Type::kString);
  EXPECT_EQ(parsed->str, nasty);
}

TEST(ServeJsonTest, NumbersRoundTripBitExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -0.0, 5e-324}) {
    const std::string text = JsonNumber(v);
    const auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_EQ(parsed->type, JsonValue::Type::kNumber);
    EXPECT_EQ(parsed->number, v) << text;
    EXPECT_EQ(parsed->raw, text);  // raw text preserved for byte echo
  }
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(ServeJsonTest, ParsesObjectsArraysAndRejectsMalformed) {
  const auto doc = ParseJson(
      R"({"ok": true, "xs": [1, 2.5, "s", null], "nested": {"k": -3}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->Find("ok")->IsTrue());
  ASSERT_EQ(doc->Find("xs")->items.size(), 4u);
  EXPECT_EQ(doc->Find("xs")->items[1].number, 2.5);
  EXPECT_EQ(doc->Find("nested")->Find("k")->number, -3.0);
  EXPECT_EQ(doc->Find("absent"), nullptr);

  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01", "1e999", "\"\\ud800\"",
        "{\"a\":1} extra", "nan", "'single'"}) {
    EXPECT_FALSE(ParseJson(bad).has_value()) << bad;
  }
  // Depth bomb: deeply nested arrays hit the cap, not the stack.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).has_value());
}

// ------------------------------------------------------------ protocol --

RequestLimits TestLimits() {
  RequestLimits limits;
  limits.max_steps = 1'000'000;
  limits.max_chains = 16;
  return limits;
}

TEST(ProtocolTest, ParsesEstimateWithCliDefaults) {
  const auto parsed =
      ParseRequestLine("ESTIMATE graph=web k=4", TestLimits());
  ASSERT_TRUE(parsed.request.has_value()) << parsed.error;
  const EstimateRequest& req = parsed.request->estimate;
  EXPECT_EQ(req.graph, "web");
  EXPECT_EQ(req.config.k, 4);
  EXPECT_EQ(req.config.d, 2);       // k == 3 ? 1 : 2
  EXPECT_TRUE(req.config.css);      // d <= 2
  EXPECT_FALSE(req.config.nb);      // k == 3 only
  EXPECT_EQ(req.max_steps, 100000u);
  EXPECT_EQ(req.seed, 42u);
  EXPECT_EQ(req.chains, 1);
  // k=3 flips the dependent defaults exactly like the CLI.
  const auto k3 = ParseRequestLine("ESTIMATE graph=g k=3", TestLimits());
  ASSERT_TRUE(k3.request.has_value());
  EXPECT_EQ(k3.request->estimate.config.d, 1);
  EXPECT_TRUE(k3.request->estimate.config.nb);
}

TEST(ProtocolTest, ParsesFullFieldSetAndCrLf) {
  const auto parsed = ParseRequestLine(
      "ESTIMATE graph=g k=5 d=3 css=0 nb=0 steps=5000 seed=9 chains=4 "
      "target_nrmse=0.05 budget=900 cache=64 deadline_ms=250 tenant=acme\r",
      TestLimits());
  ASSERT_TRUE(parsed.request.has_value()) << parsed.error;
  const EstimateRequest& req = parsed.request->estimate;
  EXPECT_EQ(req.config.d, 3);
  EXPECT_FALSE(req.config.css);
  EXPECT_EQ(req.max_steps, 5000u);
  EXPECT_EQ(req.chains, 4);
  EXPECT_EQ(req.target_nrmse, 0.05);
  EXPECT_TRUE(req.crawl);  // budget implies crawl
  EXPECT_EQ(req.budget_queries, 900u);
  EXPECT_EQ(req.cache_entries, 64u);
  EXPECT_EQ(req.deadline_ms, 250.0);
  EXPECT_EQ(req.tenant, "acme");
}

TEST(ProtocolTest, FuzzMalformedLinesAlwaysError) {
  const char* cases[] = {
      "",                                    // empty line
      "ESTIMATE",                            // missing fields
      "ESTIMATE graph=g",                    // missing k
      "ESTIMATE k=4",                        // missing graph
      "ESTIMATE graph=g k=",                 // truncated value
      "ESTIMATE graph=g k",                  // bare token
      "ESTIMATE graph=g k=4 bogus=1",        // unknown key
      "ESTIMATE graph=g k=99",               // k out of range
      "ESTIMATE graph=g k=4 d=9",            // d >= k
      "ESTIMATE graph=g k=4 steps=10k",      // strict int
      "ESTIMATE graph=g k=4 steps=0",        // below minimum
      "ESTIMATE graph=g k=4 steps=2000000",  // above server cap
      "ESTIMATE graph=g k=4 chains=17",      // above chain cap
      "ESTIMATE graph=g k=4 chains=0",
      "ESTIMATE graph=g k=4 target_nrmse=-1",
      "ESTIMATE graph=g k=4 target_nrmse=abc",
      "ESTIMATE graph=g k=4 deadline_ms=-5",
      "ESTIMATE graph=g k=4 deadline_ms=1e13",   // clock overflow
      "ESTIMATE graph=g k=4 deadline_ms=1e300",  // int64 overflow
      "ESTIMATE graph=g k=4 budget=99999999999999999999",  // int overflow
      "ESTIMATE graph=g k=4 chains=4 budget=2",  // budget < chains
      "PING extra",                          // PING takes no fields
      "LIST x=1",
      "FROBNICATE graph=g",                  // unknown verb
      "estimate graph=g k=4",                // verbs are case-sensitive
  };
  for (const char* line : cases) {
    const auto parsed = ParseRequestLine(line, TestLimits());
    EXPECT_FALSE(parsed.request.has_value()) << line;
    EXPECT_FALSE(parsed.error.empty()) << line;
  }
}

TEST(ProtocolTest, ToEngineOptionsMirrorsCliRoundStepsPinning) {
  EstimateRequest req;
  req.graph = "g";
  req.config = EstimatorConfig{4, 2, true, false};
  req.max_steps = 100000;

  // Single chain, no target, no deadline: free-running like the CLI.
  EXPECT_EQ(ToEngineOptions(req).round_steps, 0u);
  // Multi-chain or target pins rounds exactly like CmdEstimate.
  req.chains = 4;
  EXPECT_EQ(ToEngineOptions(req).round_steps,
            EngineOptions::DefaultRoundSteps(req.max_steps));
  req.chains = 1;
  req.target_nrmse = 0.05;
  EXPECT_EQ(ToEngineOptions(req).round_steps,
            EngineOptions::DefaultRoundSteps(req.max_steps));
  // A deadline needs round boundaries for cancellation to land on.
  req.target_nrmse = 0.0;
  req.deadline_ms = 100.0;
  EXPECT_GT(ToEngineOptions(req).round_steps, 0u);
}

// ------------------------------------------------------------ registry --

TEST(RegistryTest, SharedSnapshotsReuseBackingAndUnknownIdsMiss) {
  namespace fs = std::filesystem;
  Rng rng(3);
  const Graph g = LargestConnectedComponent(HolmeKim(500, 4, 0.5, rng));
  const fs::path path = fs::temp_directory_path() / "serve_reg_test.grwb";
  SaveGraphBinary(g, path.string());

  SnapshotRegistry registry;
  registry.Register("a", path.string());
  registry.Register("b", path.string());  // same bytes, different id
  EXPECT_EQ(registry.size(), 2u);

  const auto sa = registry.FindSource("a");
  const auto sb = registry.FindSource("b");
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  const Graph* ga = &sa->graph();
  const Graph* gb = &sb->graph();
  EXPECT_EQ(ga->NumNodes(), g.NumNodes());
  // Two ids over identical bytes share one mapping; neither builds an
  // index (serve reads by binary search).
  EXPECT_EQ(ga->RawNeighbors().data(), gb->RawNeighbors().data());
  EXPECT_EQ(ga->adjacency_index(), nullptr);

  EXPECT_FALSE(registry.FindSource("nope").has_value());
  const auto list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].id, "a");
  EXPECT_EQ(list[0].checksum, list[1].checksum);
  EXPECT_NE(list[0].checksum, 0u);
  fs::remove(path);
}

// ----------------------------------------------------------- scheduler --

SchedulerOptions SmallScheduler(int workers) {
  SchedulerOptions options;
  options.workers = workers;
  options.limits = TestLimits();
  return options;
}

TEST(SchedulerTest, ServesPingListEstimateAndErrors) {
  SnapshotRegistry registry;
  registry.RegisterGraph("karate", KarateClub());
  ServeScheduler scheduler(&registry, SmallScheduler(2));

  EXPECT_EQ(scheduler.HandleLine("PING"), PingResponse(TestLimits()));
  const std::string list = scheduler.HandleLine("LIST");
  EXPECT_NE(list.find("\"karate\""), std::string::npos);

  const std::string ok =
      scheduler.HandleLine("ESTIMATE graph=karate k=3 steps=2000");
  EXPECT_NE(ok.find("\"ok\": true"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"concentrations\": ["), std::string::npos);

  const std::string unknown =
      scheduler.HandleLine("ESTIMATE graph=ghost k=3");
  EXPECT_NE(unknown.find("unknown graph 'ghost'"), std::string::npos);
  const std::string bad = scheduler.HandleLine("ESTIMATE graph=karate k=9");
  EXPECT_NE(bad.find("\"ok\": false"), std::string::npos);

  const ServeScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.errors, 2u);
}

TEST(SchedulerTest, TenantBudgetExhaustsAcrossRequests) {
  SnapshotRegistry registry;
  Rng rng(5);
  registry.RegisterGraph(
      "g", LargestConnectedComponent(HolmeKim(300, 4, 0.5, rng)));
  SchedulerOptions options = SmallScheduler(1);
  options.tenant_budget = 120;
  ServeScheduler scheduler(&registry, options);

  // Burn the allowance: each request walks far enough to touch well over
  // 120 distinct vertices, so one or two requests exhaust the tenant.
  int served = 0;
  std::string last;
  for (int i = 0; i < 8; ++i) {
    last = scheduler.HandleLine(
        "ESTIMATE graph=g k=3 steps=20000 tenant=acme");
    if (last.find("\"ok\": true") != std::string::npos) {
      ++served;
      continue;
    }
    break;
  }
  EXPECT_GE(served, 1);
  EXPECT_NE(last.find("tenant 'acme': distinct-query budget exhausted"),
            std::string::npos)
      << last;
  // Another tenant is unaffected.
  const std::string other = scheduler.HandleLine(
      "ESTIMATE graph=g k=3 steps=2000 tenant=other");
  EXPECT_NE(other.find("\"ok\": true"), std::string::npos) << other;
  // Anonymous requests bypass tenant accounting entirely.
  const std::string anon =
      scheduler.HandleLine("ESTIMATE graph=g k=3 steps=2000");
  EXPECT_NE(anon.find("\"ok\": true"), std::string::npos);
}

TEST(SchedulerTest, DeadlineCancelsLongRun) {
  SnapshotRegistry registry;
  Rng rng(9);
  registry.RegisterGraph(
      "g", LargestConnectedComponent(HolmeKim(2000, 4, 0.5, rng)));
  ServeScheduler scheduler(&registry, SmallScheduler(1));
  // A million-step 5-node run takes far longer than 1ms; the deadline
  // must cancel it at a round boundary with a diagnostic.
  const std::string response = scheduler.HandleLine(
      "ESTIMATE graph=g k=5 steps=1000000 deadline_ms=1");
  EXPECT_NE(response.find("deadline exceeded"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos);
}

// A 4-shard copy of a seeded Holme-Kim LCC, in a directory unique to this
// process and removed on destruction.
struct ShardedCopy {
  Graph graph;
  std::filesystem::path dir;

  explicit ShardedCopy(const std::string& name) {
    Rng rng(13);
    graph = LargestConnectedComponent(HolmeKim(400, 4, 0.5, rng));
    dir = std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    ShardingOptions sharding;
    sharding.num_shards = 4;
    WriteShardedGraph(graph, dir.string(), sharding);
  }
  ~ShardedCopy() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// A reply's concentrations as their raw text (empty on an error reply).
std::vector<std::string> RawConcentrations(const std::string& response) {
  std::vector<std::string> out;
  const std::optional<JsonValue> json = ParseJson(response);
  if (json.has_value() && json->Find("concentrations") != nullptr) {
    for (const JsonValue& item : json->Find("concentrations")->items) {
      out.push_back(item.raw);
    }
  }
  return out;
}

TEST(RegistryTest, ShardedSourcesAreSharedPerBudget) {
  // The budget decides what a sharded open builds, so it is part of the
  // content key: one directory at budget 0 and at budget X is two
  // sources, an in-memory copy and a shard store with budget X, and a
  // second registration at either budget shares the first one's source.
  const ShardedCopy copy("serve_reg_budget");
  constexpr uint64_t kBudget = 4096;
  SnapshotRegistry registry;
  registry.Register("copied", copy.dir.string());
  registry.Register("stored", copy.dir.string(), /*verify=*/true, kBudget);
  registry.Register("copied2", copy.dir.string());
  registry.Register("stored2", copy.dir.string(), /*verify=*/true, kBudget);

  const std::optional<GraphSource> copied = registry.FindSource("copied");
  const std::optional<GraphSource> stored = registry.FindSource("stored");
  ASSERT_TRUE(copied.has_value() && stored.has_value());
  EXPECT_FALSE(copied->sharded());
  EXPECT_EQ(copied->graph().RawNeighbors().size(),
            copy.graph.RawNeighbors().size());
  ASSERT_TRUE(stored->sharded());
  EXPECT_EQ(stored->shards().options().resident_budget_bytes, kBudget);

  EXPECT_EQ(registry.FindSource("copied2")->graph().RawNeighbors().data(),
            copied->graph().RawNeighbors().data());
  EXPECT_EQ(&registry.FindSource("stored2")->shards(), &stored->shards());
}

TEST(SchedulerTest, ShardedRegistrationAnswersCrawlAndRefusesBatch) {
  const ShardedCopy copy("serve_sharded_modes");
  SnapshotRegistry registry;
  registry.Register("s", copy.dir.string(), /*verify=*/true,
                    /*resident_budget_bytes=*/1);
  ServeScheduler scheduler(&registry, SmallScheduler(1));

  // crawl=1, budget= and cache= put a crawl cache in front of the shard
  // store; estimates match the uncached run byte for byte. batch=1 is not
  // a protocol field, so the parser refuses it.
  const std::string plain =
      scheduler.HandleLine("ESTIMATE graph=s k=3 steps=2000");
  ASSERT_NE(plain.find("\"ok\": true"), std::string::npos) << plain;
  for (const char* mode : {"crawl=1", "budget=100000", "cache=8"}) {
    const std::string crawl = scheduler.HandleLine(
        std::string("ESTIMATE graph=s k=3 steps=2000 ") + mode);
    EXPECT_NE(crawl.find("\"ok\": true"), std::string::npos) << crawl;
    EXPECT_NE(crawl.find("\"distinct_queries\": "), std::string::npos);
    EXPECT_NE(crawl.find("\"shards\": "), std::string::npos);
    EXPECT_EQ(RawConcentrations(crawl), RawConcentrations(plain)) << mode;
  }
  const std::string batch =
      scheduler.HandleLine("ESTIMATE graph=s k=3 steps=2000 batch=1");
  EXPECT_NE(batch.find("\"ok\": false"), std::string::npos) << batch;
  // The worker survives the refusal and serves the next valid request.
  const std::string ok =
      scheduler.HandleLine("ESTIMATE graph=s k=3 steps=2000");
  EXPECT_NE(ok.find("\"ok\": true"), std::string::npos) << ok;
  EXPECT_EQ(scheduler.stats().completed, 5u);
}

// Tenant requests run as crawl requests, so on a sharded registration
// under a budget they take the crawl cache in front of the shard store.
TEST(SchedulerTest, TenantRequestOnShardedRegistrationIsAnsweredAndCharged) {
  const ShardedCopy copy("serve_sharded_tenant");
  SnapshotRegistry registry;
  registry.Register("s", copy.dir.string(), /*verify=*/true,
                    /*resident_budget_bytes=*/1);
  registry.RegisterGraph("flat", copy.graph);
  const std::string request = "ESTIMATE k=3 steps=2000 chains=1";

  // What one chain of this request fetches, measured on the flat graph.
  ServeScheduler metering(&registry, SmallScheduler(1));
  const std::optional<JsonValue> flat = ParseJson(
      metering.HandleLine(request + " graph=flat crawl=1"));
  ASSERT_TRUE(flat.has_value() && flat->Find("distinct_queries") != nullptr);
  const auto distinct =
      static_cast<uint64_t>(flat->Find("distinct_queries")->number);
  ASSERT_GT(distinct, 0u);

  // An allowance one above that: the run is never budget-stopped, and
  // leaves one query, below a two-chain request's need.
  SchedulerOptions options = SmallScheduler(1);
  options.tenant_budget = distinct + 1;
  ServeScheduler scheduler(&registry, options);
  const std::string anon = scheduler.HandleLine(request + " graph=s");
  ASSERT_NE(anon.find("\"ok\": true"), std::string::npos) << anon;
  const std::string tenant =
      scheduler.HandleLine(request + " graph=s tenant=acme");
  ASSERT_NE(tenant.find("\"ok\": true"), std::string::npos) << tenant;
  EXPECT_EQ(RawConcentrations(tenant), RawConcentrations(anon));
  const std::optional<JsonValue> json = ParseJson(tenant);
  EXPECT_EQ(json->Find("distinct_queries")->number,
            static_cast<double>(distinct));
  EXPECT_FALSE(json->Find("budget_exhausted")->IsTrue());

  const std::string refused = scheduler.HandleLine(
      "ESTIMATE graph=s k=3 steps=2000 chains=2 tenant=acme");
  EXPECT_NE(refused.find("tenant 'acme': distinct-query budget exhausted "
                         "(1 of " + std::to_string(distinct + 1) +
                         " remaining, need >= 2)"),
            std::string::npos)
      << refused;
}

TEST(SchedulerTest, DrainRefusesNewWorkAndIsIdempotent) {
  SnapshotRegistry registry;
  registry.RegisterGraph("karate", KarateClub());
  ServeScheduler scheduler(&registry, SmallScheduler(2));
  EXPECT_NE(scheduler.HandleLine("ESTIMATE graph=karate k=3 steps=1000")
                .find("\"ok\": true"),
            std::string::npos);
  scheduler.Drain();
  scheduler.Drain();  // idempotent
  const std::string after =
      scheduler.HandleLine("ESTIMATE graph=karate k=3 steps=1000");
  EXPECT_NE(after.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(after.find("server draining"), std::string::npos) << after;
}

template <typename Pred>
void WaitUntil(Pred pred) {
  while (!pred()) std::this_thread::yield();
}

// Admitted or shed: the scheduler has decided `n` requests.
bool Decided(const ServeScheduler& scheduler, uint64_t n) {
  const ServeScheduler::Stats stats = scheduler.stats();
  return stats.accepted + stats.rejected_queue == n;
}

TEST(SchedulerTest, AdmitsWorkersPlusQueueLimitInFlight) {
  SnapshotRegistry registry;
  registry.RegisterGraph("karate", KarateClub());
  ChainPool pool(2);
  const std::string request =
      "ESTIMATE graph=karate k=3 steps=1000 chains=2";
  // Stays in flight for a long while (2M walk steps): the requests a
  // test sends once it has been admitted find it still running.
  const std::string held =
      "ESTIMATE graph=karate k=3 steps=250000 chains=8";
  const auto ok = [](const std::string& reply) {
    return reply.find("\"ok\": true") != std::string::npos;
  };

  {  // (a) queue_limit 0 still runs `workers` jobs at once.
    SchedulerOptions options = SmallScheduler(4);
    options.queue_limit = 0;
    options.pool = &pool;
    ServeScheduler scheduler(&registry, options);
    std::vector<std::string> replies(4);
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
      clients.emplace_back(
          [&, i] { replies[i] = scheduler.HandleLine(held); });
    }
    for (std::thread& client : clients) client.join();
    for (const std::string& reply : replies) EXPECT_TRUE(ok(reply)) << reply;
    EXPECT_EQ(scheduler.stats().rejected_queue, 0u);
  }

  {  // (b) One worker, no waiting room: a second request is shed.
    SchedulerOptions options = SmallScheduler(1);
    options.queue_limit = 0;
    options.pool = &pool;
    ServeScheduler scheduler(&registry, options);
    std::string first;
    std::thread client([&] { first = scheduler.HandleLine(held); });
    WaitUntil([&] { return Decided(scheduler, 1); });
    const std::string shed = scheduler.HandleLine(request);
    client.join();
    EXPECT_TRUE(ok(first)) << first;
    EXPECT_NE(shed.find(kErrorCodeRetryAfter), std::string::npos) << shed;
    EXPECT_EQ(scheduler.stats().accepted, 1u);
    EXPECT_EQ(scheduler.stats().rejected_queue, 1u);
  }

  {  // (c) Waiting jobs start in admission order.
    SchedulerOptions options = SmallScheduler(1);
    options.queue_limit = 2;
    options.pool = &pool;
    ServeScheduler scheduler(&registry, options);
    std::string first;
    std::string second;
    std::string third;
    uint64_t completed_before_third = 0;
    std::thread a([&] { first = scheduler.HandleLine(held); });
    WaitUntil([&] { return Decided(scheduler, 1); });
    std::thread b([&] {
      second = scheduler.HandleLine(
          "ESTIMATE graph=karate k=3 steps=100000 chains=2");
    });
    WaitUntil([&] { return Decided(scheduler, 2); });
    // Fails without touching the pool as soon as it starts.
    std::thread c([&] {
      third = scheduler.HandleLine("ESTIMATE graph=ghost k=3");
      completed_before_third = scheduler.stats().completed;
    });
    a.join();
    b.join();
    c.join();
    EXPECT_TRUE(ok(first)) << first;
    EXPECT_TRUE(ok(second)) << second;
    EXPECT_NE(third.find("unknown graph 'ghost'"), std::string::npos)
        << third;
    // With one worker, the second request started and answered before
    // the third could start.
    EXPECT_EQ(completed_before_third, 2u);
    EXPECT_EQ(scheduler.stats().rejected_queue, 0u);
  }
}

// ------------------------------------------------------------- end-to-end --

class ServeEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(17);
    fixture_ = LargestConnectedComponent(HolmeKim(800, 4, 0.5, rng));
    registry_.RegisterGraph("fix", fixture_);
    ServerOptions options;
    options.port = 0;
    options.scheduler.workers = 4;
    server_ = std::make_unique<ServeServer>(&registry_, options);
    server_->Start();
  }

  Graph fixture_;
  SnapshotRegistry registry_;
  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServeEndToEndTest, EightConcurrentClientsBitIdenticalToDirectRun) {
  const std::string line = "ESTIMATE graph=fix k=4 steps=20000 chains=2";
  // The reference: a direct engine run through the same request mapping.
  const auto parsed = ParseRequestLine(line, RequestLimits{});
  ASSERT_TRUE(parsed.request.has_value());
  const EstimateRequest& req = parsed.request->estimate;
  EstimationEngine engine(fixture_, req.config, ToEngineOptions(req));
  const EngineResult direct = engine.Run();
  std::vector<std::string> expected;
  for (const int id : PaperOrder(4)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  direct.merged.concentrations[id]);
    expected.emplace_back(buf);
  }

  constexpr int kClients = 8;
  std::atomic<int> matches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      QueryClient client("127.0.0.1", server_->port());
      for (int r = 0; r < 3; ++r) {
        const auto json = ParseJson(client.RoundTrip(line));
        ASSERT_TRUE(json.has_value());
        ASSERT_TRUE(json->Find("ok")->IsTrue());
        const JsonValue* conc = json->Find("concentrations");
        ASSERT_NE(conc, nullptr);
        ASSERT_EQ(conc->items.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          // Byte-for-byte: the served wire text equals the direct run's
          // %.17g formatting — not just approximately equal.
          ASSERT_EQ(conc->items[i].raw, expected[i]);
        }
        matches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(matches.load(), kClients * 3);
}

TEST_F(ServeEndToEndTest, MalformedLinesGetErrorsAndConnectionSurvives) {
  QueryClient client("127.0.0.1", server_->port());
  const char* garbage[] = {
      "ESTIMATE graph=fix k=banana",
      "\x01\x02\x03 binary noise",
      "ESTIMATE graph=fix k=4 steps=99999999999999999999",
      "LIST LIST LIST",
  };
  for (const char* line : garbage) {
    const auto json = ParseJson(client.RoundTrip(line));
    ASSERT_TRUE(json.has_value()) << line;
    EXPECT_FALSE(json->Find("ok")->IsTrue()) << line;
  }
  // After all that abuse the same connection still serves real work.
  const auto ok =
      ParseJson(client.RoundTrip("ESTIMATE graph=fix k=3 steps=2000"));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->Find("ok")->IsTrue());
}

TEST_F(ServeEndToEndTest, UnestimableKdGetsATypedError) {
  // SRW1 never samples the 3-star (alpha = 0): the engine's validation
  // refuses the request instead of answering 0 for it.
  QueryClient client("127.0.0.1", server_->port());
  const auto json =
      ParseJson(client.RoundTrip("ESTIMATE graph=fix k=4 d=1 steps=2000"));
  ASSERT_TRUE(json.has_value());
  EXPECT_FALSE(json->Find("ok")->IsTrue());
  ASSERT_NE(json->Find("error"), nullptr);
  EXPECT_NE(json->Find("error")->str.find("3-star"), std::string::npos);
}

TEST_F(ServeEndToEndTest, SixNodeRequestIsAnsweredAndServerStaysUp) {
  // The paper numbers no 6-node graphlets: the reply labels them in
  // catalog order, and the daemon goes on serving.
  QueryClient client("127.0.0.1", server_->port());
  const auto six =
      ParseJson(client.RoundTrip("ESTIMATE graph=fix k=6 d=2 steps=200"));
  ASSERT_TRUE(six.has_value() && six->Find("ok")->IsTrue());
  const JsonValue* labels = six->Find("labels");
  ASSERT_EQ(labels->items.size(), 112u);
  EXPECT_EQ(labels->items.back().str, "g6_112");
  EXPECT_EQ(six->Find("concentrations")->items.size(), 112u);
  const auto next =
      ParseJson(client.RoundTrip("ESTIMATE graph=fix k=3 steps=2000"));
  EXPECT_TRUE(next.has_value() && next->Find("ok")->IsTrue());
}

TEST_F(ServeEndToEndTest, FinishedConnectionThreadsAreJoined) {
  // A long-lived daemon must not keep every finished connection's thread
  // (and its stack) until shutdown: the accept loop joins finished ones
  // as new connections arrive, so 200 connections opened and closed one
  // after another leave a handful unjoined, not 200.
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    QueryClient client("127.0.0.1", server_->port());
    const auto pong = ParseJson(client.RoundTrip("PING"));
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(pong->Find("ok")->IsTrue());
  }
  EXPECT_LE(server_->connection_threads(), 16u);
  server_->Stop();
  EXPECT_EQ(server_->connection_threads(), 0u);
}

TEST_F(ServeEndToEndTest, StopDrainsGracefullyWithClientsConnected) {
  QueryClient client("127.0.0.1", server_->port());
  const auto before =
      ParseJson(client.RoundTrip("ESTIMATE graph=fix k=3 steps=2000"));
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(before->Find("ok")->IsTrue());
  server_->Stop();  // must not hang despite the open connection
  EXPECT_FALSE(server_->running());
  const ServeScheduler::Stats stats = server_->stats();
  EXPECT_GE(stats.completed, 1u);
}

}  // namespace
}  // namespace grw::serve
