// Tests for the out-of-core estimation path: ShardStore's LRU residency
// accounting (eviction order, byte budget, pin semantics, re-admission
// checks), ShardedAccess read equivalence, and the shard statistics an
// engine run reports. That sharded runs match monolithic ones is checked
// by tests/conformance_test.cpp.

#include "graph/sharded_access.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/sharding.h"
#include "util/rng.h"

namespace grw {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  // ctest runs each test case as its own process (possibly in
  // parallel), so the directory must be unique per process.
  const fs::path dir = fs::temp_directory_path() /
                       (name + "." + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

// A 4-regular ring lattice: every node has degree 4, so equal row counts
// mean equal shard file sizes — the LRU tests can reason in whole shards.
Graph RegularGraph() {
  Rng rng(3);
  return WattsStrogatz(400, 4, 0.0, rng);
}

ShardManifest ShardInto(const Graph& g, const std::string& dir,
                        uint32_t shards) {
  ShardingOptions options;
  options.num_shards = shards;
  return WriteShardedGraph(g, dir, options);
}

TEST(ShardStoreTest, LruEvictionOrderUnderByteBudget) {
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_store_lru");
  const ShardManifest m = ShardInto(g, dir, 4);
  const uint64_t per_shard = m.shards[0].file_bytes;
  for (const ShardInfo& s : m.shards) {
    ASSERT_EQ(s.file_bytes, per_shard);  // regular graph => equal shards
  }

  ShardStore::Options options;
  options.resident_budget_bytes = 2 * per_shard;  // exactly two shards
  const ShardStore store(LoadShardManifest(dir), options);

  store.Acquire(0);
  store.Acquire(1);
  EXPECT_TRUE(store.Resident(0));
  EXPECT_TRUE(store.Resident(1));
  EXPECT_EQ(store.stats().evictions, 0u);

  // Third shard: the least-recently-used (0) goes, not the newest.
  store.Acquire(2);
  EXPECT_FALSE(store.Resident(0));
  EXPECT_TRUE(store.Resident(1));
  EXPECT_TRUE(store.Resident(2));

  // Touch 1 (a hit, promoting it), then fault 3: now 2 is the LRU.
  store.Acquire(1);
  store.Acquire(3);
  EXPECT_TRUE(store.Resident(1));
  EXPECT_FALSE(store.Resident(2));
  EXPECT_TRUE(store.Resident(3));

  const ShardStats stats = store.stats();
  EXPECT_EQ(stats.faults, 4u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_shards, 2u);
  EXPECT_EQ(stats.resident_bytes, 2 * per_shard);
  EXPECT_EQ(stats.peak_resident_bytes, 2 * per_shard);
  EXPECT_EQ(stats.budget_bytes, options.resident_budget_bytes);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, BudgetFloorIsOneShard) {
  // A budget smaller than any shard still admits one shard at a time —
  // the walk could not proceed otherwise.
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_store_floor");
  const ShardManifest m = ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = 1;
  const ShardStore store(LoadShardManifest(dir), options);

  store.Acquire(0);
  EXPECT_TRUE(store.Resident(0));
  EXPECT_EQ(store.stats().resident_bytes, m.shards[0].file_bytes);
  store.Acquire(1);
  EXPECT_FALSE(store.Resident(0));
  EXPECT_TRUE(store.Resident(1));
  EXPECT_EQ(store.stats().resident_shards, 1u);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, UnboundedBudgetNeverEvicts) {
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_store_unbounded");
  const ShardManifest m = ShardInto(g, dir, 4);
  const ShardStore store(LoadShardManifest(dir), {});
  for (uint32_t s = 0; s < m.NumShards(); ++s) store.Acquire(s);
  for (uint32_t s = 0; s < m.NumShards(); ++s) {
    EXPECT_TRUE(store.Resident(s));
  }
  const ShardStats stats = store.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_bytes, m.TotalShardBytes());
  EXPECT_EQ(stats.budget_bytes, 0u);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, PinSurvivesEviction) {
  // A chain's pin keeps an evicted shard readable: the store drops its
  // pages, but the mapping stays and refaults from disk.
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_store_pin");
  ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = 1;  // floor: one resident shard
  const ShardStore store(LoadShardManifest(dir), options);

  const MappedShard* pin = store.Acquire(0);
  store.Acquire(1);
  store.Acquire(2);
  ASSERT_FALSE(store.Resident(0));
  for (VertexId v = pin->first_node(); v < pin->end_node(); ++v) {
    ASSERT_EQ(pin->Degree(v), g.Degree(v)) << "node " << v;
  }
  // Re-acquiring after eviction is a fresh fault, not a hit.
  const ShardStats stats = store.stats();
  EXPECT_EQ(stats.faults, 3u);
  // ...of the same mapping: shards are mapped once per store.
  EXPECT_EQ(store.Acquire(0), pin);
  EXPECT_EQ(store.stats().faults, 4u);
  fs::remove_all(dir);
}

// Flips one byte of `path` in place: same inode, no rename, so a live
// mapping of the file sees the change once its pages refault.
void FlipByteInPlace(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  unsigned char value = 0;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fread(&value, 1, 1, f), 1u);
  value ^= 1u;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, 1, 1, f), 1u);
  std::fclose(f);
}

TEST(ShardStoreTest, ReadmissionRechecksShard) {
  // Every re-admission of an evicted shard re-runs the open-time header
  // checks, plus the full payload scan under verify_on_fault — a shard
  // damaged while the store is open is caught on its next fault, and
  // the failed fault leaves nothing charged.
  const Graph g = RegularGraph();
  for (const bool verify : {true, false}) {
    const std::string dir = TempDir("grw_store_recheck");
    const ShardManifest m = ShardInto(g, dir, 4);
    ShardStore::Options options;
    options.resident_budget_bytes = 1;  // floor: one resident shard
    options.verify_on_fault = verify;
    const ShardStore store(LoadShardManifest(dir), options);

    store.Acquire(0);
    // verify: the last neighbor byte, which only the payload scan reads;
    // no verify: a header byte, covered by the header checksum.
    const uint64_t offset = verify ? m.shards[0].file_bytes - 1 : 8;
    FlipByteInPlace(m.ShardPath(0), offset);
    store.Acquire(1);
    ASSERT_FALSE(store.Resident(0));
    EXPECT_THROW(store.Acquire(0), SnapshotCorruptError)
        << "verify_on_fault=" << verify;
    EXPECT_FALSE(store.Resident(0));
    EXPECT_TRUE(store.Resident(1));
    EXPECT_EQ(store.stats().faults, 2u);
    fs::remove_all(dir);
  }
}

TEST(ShardedAccessTest, ReadsMatchGraphEverywhere) {
  // Every accessor, every node, every budget: answers must be identical
  // to the monolithic Graph — including HasEdge's tie-breaking.
  Rng rng(17);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 4, 0.4, rng));
  const std::string dir = TempDir("grw_access_equiv");
  const ShardManifest m = ShardInto(g, dir, 5);
  for (const uint64_t budget : {uint64_t{0}, m.shards[0].file_bytes}) {
    ShardStore::Options options;
    options.resident_budget_bytes = budget;
    const ShardStore store(LoadShardManifest(dir), options);
    const ShardedAccess access(store);
    ASSERT_EQ(access.NumNodes(), g.NumNodes());
    ASSERT_EQ(access.NumEdges(), g.NumEdges());
    Rng probe(99);
    for (VertexId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(access.Degree(v), g.Degree(v)) << "node " << v;
      const auto got = access.Neighbors(v);
      const auto want = g.Neighbors(v);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "node " << v;
      }
      // Random HasEdge probes, mixing present and absent pairs.
      const VertexId u = static_cast<VertexId>(probe.UniformInt(g.NumNodes()));
      ASSERT_EQ(access.HasEdge(v, u), g.HasEdge(v, u))
          << "pair " << v << "," << u;
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ engine --

EngineOptions BaseOptions(int chains, unsigned threads) {
  EngineOptions options;
  options.chains = chains;
  options.threads = threads;
  options.max_steps = 4000;
  options.base_seed = 20240808;
  options.round_steps = EngineOptions::DefaultRoundSteps(options.max_steps);
  return options;
}

TEST(ShardedEngineTest, SingleThreadStatsUnchanged) {
  // One thread makes the Acquire stream deterministic, so the residency
  // counters are exact functions of the LRU policy, the kPins MRU and
  // the walk. The constants pin all three against silent drift.
  Rng rng(23);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.3, rng));
  const std::string dir = TempDir("grw_engine_stats_pinned");
  const ShardManifest m = ShardInto(g, dir, 8);
  ShardStore::Options store_options;
  store_options.resident_budget_bytes = m.TotalShardBytes() / 4;
  const ShardStore store(LoadShardManifest(dir), store_options);
  const EstimatorConfig config{4, 2, true, false};
  const EngineResult result =
      EstimationEngine(store, config, BaseOptions(/*chains=*/4, 1)).Run();
  EXPECT_EQ(result.shards.faults, 7513u);
  EXPECT_EQ(result.shards.hits, 78u);
  EXPECT_EQ(result.shards.evictions, 7512u);
  EXPECT_EQ(result.shards.peak_resident_bytes, 4120u);
  fs::remove_all(dir);
}

TEST(ShardedEngineTest, ShardStatsCoverOnlyTheirOwnRun) {
  // Two identical runs on one unbounded store: the second finds every
  // shard the first faulted already resident, so it faults nothing and
  // every one of its Acquire calls (same seeds, same walk, same count as
  // the first run's faults + hits) is a hit.
  Rng rng(37);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.3, rng));
  const std::string dir = TempDir("grw_engine_stats_delta");
  ShardInto(g, dir, 8);
  const ShardStore store(LoadShardManifest(dir), {});
  const EstimatorConfig config{4, 2, true, false};
  EngineOptions options = BaseOptions(/*chains=*/2, /*threads=*/1);
  options.max_steps = 2000;

  const EngineResult first = EstimationEngine(store, config, options).Run();
  const EngineResult second = EstimationEngine(store, config, options).Run();
  EXPECT_EQ(first.shards.faults, 8u);
  EXPECT_EQ(second.shards.faults, 0u);
  EXPECT_EQ(second.shards.hits, first.shards.faults + first.shards.hits);
  EXPECT_EQ(second.shards.evictions, 0u);
  // Residency state and the high-water mark describe the store itself.
  EXPECT_EQ(second.shards.resident_shards, 8u);
  EXPECT_EQ(second.shards.peak_resident_bytes,
            first.shards.peak_resident_bytes);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace grw
