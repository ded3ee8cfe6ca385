// The bit-identity contract as one table: every estimator configuration,
// access mode and thread count, through both entry points, answers exactly
// what full access on one thread answers through the CLI path. Both paths
// start from the same flags and serve::EstimateRequestLine: the cli path
// parses the line without request limits and runs the engine on the
// opened graph (`grw estimate`); the served path hands it to
// ServeScheduler::HandleLine over a SnapshotRegistry (`grw_serve`). cli
// cells must match the reference field for field, served cells its
// concentrations byte for byte, and every cell checks that its access
// mode really ran. Each cell is its own ctest case.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/sharding.h"
#include "graph/source.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "util/flags.h"
#include "util/rng.h"

namespace grw::serve {
namespace {

namespace fs = std::filesystem;

// One seeded Holme-Kim LCC and a 6-shard copy of it, in a directory unique
// to this process (ctest runs the cells as parallel processes).
struct Fixture {
  Graph graph;
  std::string shard_dir;
  uint64_t one_shard_bytes = 0;

  Fixture() {
    Rng rng(23);
    graph = LargestConnectedComponent(HolmeKim(400, 4, 0.3, rng));
    shard_dir = (fs::temp_directory_path() /
                 ("grw_conformance." + std::to_string(::getpid())))
                    .string();
    fs::remove_all(shard_dir);
    ShardingOptions sharding;
    sharding.num_shards = 6;
    one_shard_bytes =
        WriteShardedGraph(graph, shard_dir, sharding).shards[0].file_bytes;
  }
  ~Fixture() {
    std::error_code ec;
    fs::remove_all(shard_dir, ec);
  }
};

const Fixture& TheFixture() {
  static const Fixture fixture;
  return fixture;
}

// Estimation flags, as a user types them. One config per walk dimension
// and weight path: CSS on and off, NB on, and the closed-form G(3) walk at
// k = 4 and 5. Every run takes several 256-step rounds, the last one
// longer by the remainder; the costlier d = 3 steps get fewer of them.
struct Config {
  const char* name;
  const char* flags;
};
const Config kConfigs[] = {
    {"SRW1CSSNB_k3", "--k=3 --steps=1200"},
    {"SRW2CSS_k4", "--k=4 --steps=1200"},
    {"SRW2_k4", "--k=4 --css=0 --steps=1200"},
    {"PSRW_k4", "--k=4 --d=3 --steps=600"},
    {"PSRWNB_k4", "--k=4 --d=3 --nb=1 --steps=600"},
    {"SRW3_k5", "--k=5 --d=3 --steps=600"},
    {"SRW3CSS_k5", "--k=5 --d=3 --css=1 --steps=600"},
};

// How the chains read the graph: a crawl cache (unbounded, or one list),
// the shard directory (with no budget, copied into one in-memory Graph
// at open; with one shard's bytes, the shard store), both (the crawl
// cache in front of the shard copy or store; an evicting cell evicts
// from both), or neither.
struct Access {
  const char* name;
  const char* crawl_flags;
  bool sharded;
  bool evicting;
};
const Access kFull{"full", "", false, false};
const Access kCrawl{"crawl", "--cache-size=0", false, false};
const Access kAccessModes[] = {
    kFull,
    kCrawl,
    {"crawlEvicting", "--cache-size=1", false, true},
    {"sharded", "", true, false},
    {"shardedEvicting", "", true, true},
    {"shardedCrawl", "--cache-size=0", true, false},
    {"shardedCrawlEvicting", "--cache-size=1", true, true},
};

// Cell parameters print as their names.
void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }
void PrintTo(const Access& access, std::ostream* os) { *os << access.name; }

uint64_t ShardBudget(const Access& a) {
  return a.sharded && a.evicting ? TheFixture().one_shard_bytes : 0;
}

Flags CellFlags(const Config& config, const Access& access) {
  std::vector<std::string> args = {"grw", "--chains=8", "--seed=20240808"};
  std::istringstream words(std::string(config.flags) + " " +
                           access.crawl_flags);
  for (std::string word; words >> word;) args.push_back(word);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

struct CliRun {
  EstimateRequest request;
  EngineResult result;
};

// The `grw estimate` path.
CliRun RunCli(const Config& config, const Access& access, unsigned threads) {
  const ParsedRequest parsed = ParseRequestLine(
      EstimateRequestLine(CellFlags(config, access), "cli"),
      RequestLimits::None());
  if (!parsed.request.has_value()) throw std::runtime_error(parsed.error);
  CliRun run{parsed.request->estimate, {}};
  EngineOptions options = ToEngineOptions(run.request);
  options.threads = threads;
  const GraphSource source =
      access.sharded
          ? GraphSource::Open(TheFixture().shard_dir,
                              {.resident_budget_bytes = ShardBudget(access)})
          : GraphSource::FromGraph(TheFixture().graph);
  // Only a budget puts a shard store under the run.
  EXPECT_EQ(source.sharded(), ShardBudget(access) > 0);
  EstimationEngine engine =
      source.sharded()
          ? EstimationEngine(source.shards(), run.request.config, options)
          : EstimationEngine(source.graph(), run.request.config, options);
  run.result = engine.Run();
  return run;
}

// The `grw_serve` path.
std::string RunServed(const Config& config, const Access& access,
                      unsigned threads) {
  SnapshotRegistry registry;
  if (access.sharded) {
    registry.Register("g", TheFixture().shard_dir, /*verify=*/true,
                      ShardBudget(access));
  } else {
    registry.RegisterGraph("g", TheFixture().graph);
  }
  SchedulerOptions options;
  options.engine_threads = threads;
  ServeScheduler scheduler(&registry, options);
  return scheduler.HandleLine(
      EstimateRequestLine(CellFlags(config, access), "g"));
}

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

// The cli run of `config` under `access` on 1 thread, memoized: full
// access is every cell's reference, and the unbounded crawl is the cost
// every crawl cell is measured against.
const CliRun& Reference(const Config& config, const Access& access) {
  static std::map<std::string, CliRun> memo;
  const std::string key = std::string(config.name) + "/" + access.name;
  if (!memo.count(key)) memo.emplace(key, RunCli(config, access, 1));
  return memo.at(key);
}

using Cell = std::tuple<Config, Access, unsigned, bool>;
class ConformanceTest : public ::testing::TestWithParam<Cell> {};

TEST_P(ConformanceTest, MatchesFullAccessReference) {
  const auto& [config, access, threads, served] = GetParam();
  const CliRun& ref = Reference(config, kFull);
  const bool crawls = *access.crawl_flags != '\0';
  ASSERT_EQ(ref.result.per_chain.size(), 8u);

  if (served) {
    const std::string response = RunServed(config, access, threads);
    const std::optional<JsonValue> json = ParseJson(response);
    ASSERT_TRUE(json.has_value() && json->Find("ok")->IsTrue()) << response;
    EXPECT_EQ(RawConcentrations(response),
              RawConcentrations(EstimateResponse(ref.request, ref.result)));
    // The mode really ran on the server: its accounting is in the reply.
    if (crawls) {
      ASSERT_NE(json->Find("distinct_queries"), nullptr) << response;
      EXPECT_EQ(json->Find("distinct_queries")->number,
                static_cast<double>(
                    Reference(config, kCrawl).result.access.distinct_fetches));
    }
    // A bounded reader misses; an unbounded open reads an in-memory
    // copy, so its reply has no shard accounting.
    const JsonValue* shards = json->Find("shards");
    if (ShardBudget(access) > 0) {
      ASSERT_NE(shards, nullptr) << response;
      EXPECT_GT(shards->Find("faults")->number, 0.0);
      EXPECT_EQ(shards->Find("budget_bytes")->number,
                static_cast<double>(ShardBudget(access)));
    } else {
      EXPECT_EQ(shards, nullptr) << response;
    }
    return;
  }

  const EngineResult run = RunCli(config, access, threads).result;
  ASSERT_EQ(run.per_chain.size(), ref.result.per_chain.size());
  for (size_t c = 0; c < run.per_chain.size(); ++c) {
    SCOPED_TRACE("chain " + std::to_string(c));
    EXPECT_EQ(run.per_chain[c].weights, ref.result.per_chain[c].weights);
    EXPECT_EQ(run.per_chain[c].samples, ref.result.per_chain[c].samples);
    EXPECT_EQ(run.per_chain[c].valid_samples,
              ref.result.per_chain[c].valid_samples);
  }
  EXPECT_EQ(run.merged.weights, ref.result.merged.weights);
  EXPECT_EQ(run.merged.concentrations, ref.result.merged.concentrations);
  EXPECT_EQ(run.merged.steps, ref.result.merged.steps);
  EXPECT_EQ(run.rounds, ref.result.rounds);
  EXPECT_EQ(run.steps_per_chain, ref.result.steps_per_chain);

  if (crawls) {
    // Per-chain crawl accounting, no budget stop. The distinct lists a
    // run reads do not depend on the cache; an unbounded cache fetches
    // each of them once, at any thread count, and a one-list cache evicts
    // and re-fetches.
    const CrawlStats& unbounded = Reference(config, kCrawl).result.access;
    EXPECT_EQ(run.per_chain_access.size(), 8u);
    EXPECT_FALSE(run.budget_exhausted);
    EXPECT_GT(run.access.distinct_fetches, 0u);
    EXPECT_EQ(run.access.distinct_fetches, unbounded.distinct_fetches);
    EXPECT_EQ(unbounded.fetches, unbounded.distinct_fetches);
    EXPECT_EQ(unbounded.evictions, 0u);
    if (access.evicting) {
      EXPECT_GT(run.access.evictions, 0u);
      EXPECT_GT(run.access.fetches, unbounded.fetches);
    } else {
      EXPECT_EQ(run.access.fetches, unbounded.fetches);
      EXPECT_EQ(run.access.cache_hits, unbounded.cache_hits);
      EXPECT_EQ(run.access.evictions, 0u);
    }
  }
  if (ShardBudget(access) > 0) {
    EXPECT_GT(run.shards.faults, 0u);
    EXPECT_GT(run.shards.evictions, 0u);
    EXPECT_EQ(run.shards.budget_bytes, ShardBudget(access));
  } else {
    // No shard store: no shard accounting.
    EXPECT_EQ(run.shards.faults + run.shards.hits + run.shards.evictions +
                  run.shards.peak_resident_bytes + run.shards.budget_bytes,
              0u);
  }
}

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  const auto& [config, access, threads, served] = info.param;
  return std::string(config.name) + "_" + access.name + "_t" +
         std::to_string(threads) + (served ? "_served" : "_cli");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConformanceTest,
    ::testing::Combine(::testing::ValuesIn(kConfigs),
                       ::testing::ValuesIn(kAccessModes),
                       ::testing::Values(1u, 2u, 8u), ::testing::Bool()),
    CellName);

}  // namespace
}  // namespace grw::serve
