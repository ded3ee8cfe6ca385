// Tests for the out-of-core estimation path: ShardStore's counters and
// re-checks of damaged shards, ShardedAccess read equivalence and its
// neighbor-list cache (span lifetime, its one fixed size), and the shard
// statistics an engine run reports, alone and next to another run on the
// same store. That sharded runs match monolithic ones is checked by
// tests/conformance_test.cpp.

#include "graph/sharded_access.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/mapped_file.h"
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

// What a bounded store counts in open_bytes for shard `s`: the pages of
// its mapping through the end of its offsets region (the header, then
// num_rows + 1 offsets), which its misses read.
uint64_t OffsetsBytes(const ShardManifest& m, uint32_t s) {
  const uint64_t page = PageBytes();
  const uint64_t end =
      snapshot::kHeaderBytes + (m.shards[s].num_rows + 1) * sizeof(uint64_t);
  return (end + page - 1) / page * page;
}

// The same, for every shard of `m`.
uint64_t OffsetsBytes(const ShardManifest& m) {
  uint64_t bytes = 0;
  for (uint32_t s = 0; s < m.NumShards(); ++s) bytes += OffsetsBytes(m, s);
  return bytes;
}

// A store reads lists through reader caches, never a shard's neighbors
// slice: its open_bytes are every shard's header and offsets pages, and
// every Acquire re-checks its shard and counts a fault, evicting nothing,
// whatever its budget. The store's own stats carry no memory figure.
void ExpectStoreKeepsNoShardResident(uint64_t budget, const std::string& name) {
  const Graph g = RegularGraph();
  const std::string dir = TempDir(name);
  const ShardManifest m = ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = budget;
  const ShardStore store(LoadShardManifest(dir), options);
  EXPECT_EQ(store.open_bytes(), OffsetsBytes(m));

  for (uint32_t s = 0; s < m.NumShards(); ++s) store.Acquire(s);
  EXPECT_EQ(store.Acquire(0)->index(), 0u);
  const ShardStats stats = store.stats();
  EXPECT_EQ(stats.faults, m.NumShards() + 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.peak_resident_bytes, 0u);
  EXPECT_EQ(stats.budget_bytes, budget);
  fs::remove_all(dir);
}

TEST(ShardStoreTest, BoundedStoreKeepsNoShardResident) {
  ExpectStoreKeepsNoShardResident(1, "grw_store_bounded");
}

TEST(ShardStoreTest, UnboundedBudgetNeverEvicts) {
  // Budget 0 is no ceiling, and the store is no different: it maps the
  // offsets pages at open, and its Acquires evict nothing.
  ExpectStoreKeepsNoShardResident(0, "grw_store_unbounded");
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
  // Every read that reaches a shard file — a miss, or an Acquire —
  // re-checks the shard first: a shard damaged while the store is open
  // fails its next such read, while lists already cached and other
  // shards stay readable, at budget 0 as at any other. One byte flipped
  // in any header field, or in the last offsets entry, each on a fresh
  // store.
  const Graph g = RegularGraph();
  struct Damage {
    const char* what;
    uint64_t offset;
  };
  const uint64_t rows = g.NumNodes() / 4;
  const Damage kDamage[] = {
      {"magic", 0},           {"version", 4},
      {"shard_index", 8},     {"flags", 12},
      {"first_node", 16},     {"num_rows", 24},
      {"total_nodes", 32},    {"num_half_edges", 40},
      {"data_checksum", 48},  {"header_checksum", 56},
      {"last offsets entry", snapshot::kHeaderBytes + rows * sizeof(uint64_t)},
  };
  for (const uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
    for (const Damage& damage : kDamage) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", " + damage.what);
      const std::string dir = TempDir("grw_store_recheck");
      const ShardManifest m = ShardInto(g, dir, 4);
      ASSERT_EQ(m.shards[0].num_rows, rows);
      ShardStore::Options options;
      options.resident_budget_bytes = budget;
      const ShardStore store(LoadShardManifest(dir), options);
      const ShardedAccess access(store);
      const VertexId first = 0;
      // A row whose offsets pair does not hold the last offset.
      const auto other = static_cast<VertexId>(rows / 2);
      const auto next_shard = static_cast<VertexId>(m.shards[1].first_node);

      ASSERT_EQ(access.Degree(first), g.Degree(first));
      FlipByteInPlace(m.ShardPath(0), damage.offset);
      EXPECT_THROW(access.Neighbors(other), SnapshotCorruptError);
      EXPECT_THROW(store.Acquire(0), SnapshotCorruptError);
      EXPECT_EQ(access.Degree(first), g.Degree(first));
      EXPECT_EQ(access.Degree(next_shard), g.Degree(next_shard));
      EXPECT_NO_THROW(store.Acquire(1));
      fs::remove_all(dir);
    }
  }
}

TEST(ShardedAccessTest, FlippedOffsetsEntryThrowsInsteadOfReadingOutOfBounds) {
  // An offsets entry damaged in place after open: the two rows it bounds
  // fail their next read with SnapshotCorruptError — the offsets pair is
  // bounds-checked before any list is read — and the rows around them
  // still read correctly.
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_access_offsets");
  const ShardManifest m = ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = 1;
  const ShardStore store(LoadShardManifest(dir), options);
  const ShardedAccess access(store);
  const uint64_t row = m.shards[0].num_rows / 2;
  // The top byte of offsets[row + 1]: the end of `row`, the start of
  // `row + 1`, now far past the neighbors slice.
  FlipByteInPlace(m.ShardPath(0), 64 + (row + 1) * sizeof(uint64_t) + 7);
  const auto v = static_cast<VertexId>(row);
  EXPECT_THROW(access.Neighbors(v), SnapshotCorruptError);
  EXPECT_THROW(access.Degree(v + 1), SnapshotCorruptError);
  EXPECT_EQ(access.Degree(v - 1), g.Degree(v - 1));
  EXPECT_EQ(access.Degree(v + 2), g.Degree(v + 2));
  fs::remove_all(dir);
}

TEST(ShardedAccessTest, ListTruncatedAfterOpenThrows) {
  // A shard cut in place after open, inside its neighbors slice: its
  // offsets region is intact, so the per-miss re-check passes and the
  // offsets pair reads from the mapping, but the list pread(2) ends
  // early for every row whose list lies past the cut. Rows before the
  // cut still read correctly.
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_access_truncated");
  const ShardManifest m = ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = 1;
  const ShardStore store(LoadShardManifest(dir), options);
  const ShardedAccess access(store);
  // Every row has the same degree: cut after the first half's lists.
  const uint64_t rows = m.shards[0].num_rows;
  const VertexId kept = static_cast<VertexId>(rows / 2);
  const uint64_t neighbors_at =
      snapshot::kHeaderBytes + (rows + 1) * sizeof(uint64_t);
  const uint64_t cut =
      neighbors_at + uint64_t{kept} * g.Degree(0) * sizeof(VertexId);
  fs::resize_file(m.ShardPath(0), cut);
  try {
    access.Neighbors(kept);
    FAIL() << "expected the list read to end early";
  } catch (const SnapshotCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated after open"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(access.Degree(static_cast<VertexId>(rows - 1)),
               SnapshotCorruptError);
  for (VertexId v = 0; v < kept; ++v) {
    const auto got = access.Neighbors(v);
    const auto want = g.Neighbors(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "node " << v;
  }
  fs::remove_all(dir);
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

void ExpectSameShardCounters(const ShardStats& a, const ShardStats& b) {
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.peak_resident_bytes, b.peak_resident_bytes);
}

TEST(ShardedAccessTest, ReaderCacheIsTheSameAtEveryBudget) {
  // A reader's cache has one size, fixed by the manifest: with no budget
  // (0), or one from one byte to 64 times the graph's bytes, it has the
  // same bytes and counts the same faults, hits and evictions. One pass
  // over every node evicts, and the lists still in the ring — at least
  // the newest kKeptLists — are hits when read again.
  Rng rng(5);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 4, 0.4, rng));
  const std::string dir = TempDir("grw_access_fixed");
  const ShardManifest m = ShardInto(g, dir, 5);
  constexpr uint32_t kKept = ShardedAccess::kKeptLists;
  std::vector<ShardStats> seen;
  for (const uint64_t budget : {uint64_t{0}, uint64_t{1}, m.TotalShardBytes(),
                                64 * m.TotalShardBytes()}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ShardStore::Options options;
    options.resident_budget_bytes = budget;
    const ShardStore store(LoadShardManifest(dir), options);
    const ShardedAccess access(store);
    for (VertexId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(access.Degree(v), g.Degree(v));
    }
    const ShardStats first = access.stats();
    EXPECT_EQ(first.faults, g.NumNodes());
    EXPECT_GT(first.evictions, 0u);
    for (VertexId v = g.NumNodes() - kKept; v < g.NumNodes(); ++v) {
      ASSERT_EQ(access.Degree(v), g.Degree(v));
    }
    const ShardStats own = access.stats();
    EXPECT_EQ(own.faults, first.faults);
    EXPECT_EQ(own.hits, first.hits + kKept);
    EXPECT_EQ(store.open_bytes(), OffsetsBytes(m));
    seen.push_back(own);
  }
  for (size_t i = 1; i < seen.size(); ++i) {
    ExpectSameShardCounters(seen[i], seen[0]);
  }
  fs::remove_all(dir);
}

TEST(ShardedAccessTest, SpansOutliveTheNextHeldReads) {
  // The G(d) merge holds up to d - 1 lists while it fetches them: a span
  // must survive the reader's next kHeldReads reads, hit or miss, at the
  // smallest budget (every list is evicted as soon as it may be) and at
  // one that keeps lists long enough for old entries to be hit again.
  Rng rng(11);
  const Graph g = LargestConnectedComponent(HolmeKim(500, 3, 0.4, rng));
  const std::string dir = TempDir("grw_access_spans");
  const ShardManifest m = ShardInto(g, dir, 4);
  for (const uint64_t budget : {uint64_t{1}, m.TotalShardBytes()}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ShardStore::Options options;
    options.resident_budget_bytes = budget;
    const ShardStore store(LoadShardManifest(dir), options);
    const ShardedAccess access(store);
    constexpr size_t kHeld = ShardedAccess::kHeldReads;
    std::vector<std::pair<VertexId, std::span<const VertexId>>> held;
    Rng pick(budget);
    for (int read = 0; read < 20000; ++read) {
      // Mostly a small hot set, so lists are hit at every age.
      const VertexId v = static_cast<VertexId>(
          pick.UniformInt(pick.Bernoulli(0.7) ? 40 : g.NumNodes()));
      held.emplace_back(v, access.Neighbors(v));
      if (held.size() > kHeld + 1) held.erase(held.begin());
      for (const auto& [u, span] : held) {
        const auto want = g.Neighbors(u);
        ASSERT_TRUE(std::equal(span.begin(), span.end(), want.begin(),
                               want.end()))
            << "read " << read << ", node " << u;
      }
    }
    const ShardStats own = access.stats();
    EXPECT_GT(own.evictions, 0u);
    EXPECT_GT(own.hits, 0u);
  }
  fs::remove_all(dir);
}

// This process's resident bytes, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * PageBytes();
}

TEST(ShardedAccessTest, CachePagesStayWithinTheirCharge) {
  // A reader writes only inside the cache it counts: sixteen readers
  // cycling through many short lists under a budget far below their
  // shares grow the process by no more than their caches' bytes plus the
  // store's open_bytes. One hub of degree 4000 that they never read
  // makes any cache sized from the graph's max degree, rather than from
  // what it read, show.
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer's shadow memory grows with every page";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "ThreadSanitizer's shadow memory grows with every page";
#endif
#endif
  constexpr VertexId kNodes = 20000;
  constexpr VertexId kHub = kNodes - 1;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v + 1 < kHub; ++v) edges.emplace_back(v, v + 1);
  for (VertexId v = 0; v < 4000; ++v) edges.emplace_back(v * 4, kHub);
  const Graph g = FromEdges(kNodes, edges);
  const std::string dir = TempDir("grw_access_pages");
  const ShardManifest m = ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = 64 * 1024;
  const ShardStore store(LoadShardManifest(dir), options);
  std::vector<ShardedAccess> readers;
  readers.reserve(16);
  const uint64_t before = ResidentBytes();
  for (int r = 0; r < 16; ++r) readers.emplace_back(store);
  Rng pick(41);
  for (int read = 0; read < 16 * 12000; ++read) {
    const auto v = static_cast<VertexId>(pick.UniformInt(kHub));
    ASSERT_EQ(readers[read % 16].Degree(v), g.Degree(v));
  }
  const uint64_t grown = ResidentBytes() - std::min(before, ResidentBytes());
  EXPECT_GT(store.stats().evictions, 0u);
  uint64_t counted =
      16 * readers[0].stats().peak_resident_bytes + store.open_bytes();
  // The caches are heap arrays: AddressSanitizer writes one shadow byte
  // per 8 bytes of each when it allocates them.
#if defined(__SANITIZE_ADDRESS__)
  counted += counted / 8;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  counted += counted / 8;
#endif
#endif
  // Slack for the shard pages each miss re-checks, and the heap.
  EXPECT_LE(grown, counted + 512 * 1024) << "counted " << counted;
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
  // One thread makes the reads deterministic, so the counters are exact
  // functions of the cache policy and the walk. The constants pin the
  // policy against silent drift; the in-memory run pins the walk.
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
  EXPECT_EQ(result.shards.faults, 10223u);
  // Hits include the sample window's edge probes: the ones its walk's
  // known adjacency answers are not made. They include the walk's own
  // degree reads too, and SRW2CSS asks for no state degrees.
  EXPECT_EQ(result.shards.hits, 261749u);
  EXPECT_EQ(result.shards.evictions, 9908u);
  // Each reader's cache: one page of index, and a ring of kKeptLists + 2
  // entries at the manifest's degree bound, 2^7 - 1: 7280 bytes, two
  // pages. The run reads through all 8 shards, whose header and offsets
  // take a page each; the store keeps them mapped after the run.
  ASSERT_EQ(std::bit_width(g.MaxDegree()), 7);
  ASSERT_EQ(OffsetsBytes(m), 8 * PageBytes());
  EXPECT_EQ(result.shards.peak_resident_bytes, (4 * 3 + 8) * PageBytes());
  EXPECT_EQ(store.open_bytes(), 8 * PageBytes());
  const EngineResult in_memory =
      EstimationEngine(g, config, BaseOptions(/*chains=*/4, 1)).Run();
  EXPECT_EQ(result.merged.weights, in_memory.merged.weights);
  fs::remove_all(dir);
}

// Two different estimates, run on one store alone and then side by side.
struct TwoRuns {
  EngineResult first;
  EngineResult second;
};

TwoRuns RunTwo(const ShardStore& store, int chains, unsigned threads,
               bool concurrently) {
  const EstimatorConfig srw{4, 2, true, false};
  const EstimatorConfig psrw{4, 3, false, false};
  EngineOptions first_options = BaseOptions(chains, threads);
  EngineOptions second_options = BaseOptions(chains, threads);
  second_options.base_seed = 7;
  TwoRuns runs;
  const auto run_first = [&] {
    runs.first = EstimationEngine(store, srw, first_options).Run();
  };
  const auto run_second = [&] {
    runs.second = EstimationEngine(store, psrw, second_options).Run();
  };
  if (concurrently) {
    std::thread other(run_second);
    run_first();
    other.join();
  } else {
    run_first();
    run_second();
  }
  return runs;
}

TEST(ShardedEngineTest, ConcurrentRunsReportWhatTheyReportAlone) {
  // Each run reports its own readers' counters, not a window of the
  // store's totals: two runs side by side on one bounded store report
  // exactly what each reports alone.
  Rng rng(29);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.3, rng));
  const std::string dir = TempDir("grw_engine_stats_concurrent");
  const ShardManifest m = ShardInto(g, dir, 8);
  ShardStore::Options options;
  options.resident_budget_bytes = m.TotalShardBytes() / 4;
  const ShardStore store(LoadShardManifest(dir), options);

  const TwoRuns alone = RunTwo(store, /*chains=*/4, /*threads=*/2, false);
  const TwoRuns together = RunTwo(store, /*chains=*/4, /*threads=*/2, true);
  EXPECT_GT(alone.first.shards.evictions, 0u);
  EXPECT_GT(alone.second.shards.evictions, 0u);
  ExpectSameShardCounters(together.first.shards, alone.first.shards);
  ExpectSameShardCounters(together.second.shards, alone.second.shards);
  EXPECT_EQ(together.first.merged.weights, alone.first.merged.weights);
  EXPECT_EQ(together.second.merged.weights, alone.second.merged.weights);
  // The store's totals are the four runs' sums.
  EXPECT_EQ(store.stats().faults, 2 * (alone.first.shards.faults +
                                       alone.second.shards.faults));
  EXPECT_EQ(store.open_bytes(), OffsetsBytes(m));
  fs::remove_all(dir);
}

TEST(ShardedEngineTest, BudgetBoundsChargedBytesAcrossEngines) {
  // Two 4-thread engines of 16 chains each on one store, side by side:
  // whatever the budget, a run's peak_resident_bytes is exactly its
  // chains' fixed caches plus the offsets of the shards read.
  Rng rng(31);
  const Graph g = LargestConnectedComponent(HolmeKim(600, 4, 0.3, rng));
  const std::string dir = TempDir("grw_engine_budget");
  const ShardManifest m = ShardInto(g, dir, 6);
  ShardStore::Options options;
  options.resident_budget_bytes = m.TotalShardBytes() / 2;
  const ShardStore store(LoadShardManifest(dir), options);

  const TwoRuns runs = RunTwo(store, /*chains=*/16, /*threads=*/4, true);
  const uint64_t offsets = OffsetsBytes(m);
  EXPECT_EQ(store.open_bytes(), offsets);
  const uint64_t cache = ShardedAccess(store).stats().peak_resident_bytes;
  EXPECT_GT(cache, 0u);
  EXPECT_EQ(runs.first.shards.peak_resident_bytes, 16 * cache + offsets);
  EXPECT_EQ(runs.second.shards.peak_resident_bytes, 16 * cache + offsets);
  EXPECT_GT(runs.first.shards.evictions, 0u);
  // The budget moved nothing but memory.
  const TwoRuns in_memory = [&] {
    TwoRuns r;
    r.first = EstimationEngine(g, {4, 2, true, false}, BaseOptions(16, 4))
                  .Run();
    EngineOptions second = BaseOptions(16, 4);
    second.base_seed = 7;
    r.second = EstimationEngine(g, {4, 3, false, false}, second).Run();
    return r;
  }();
  EXPECT_EQ(runs.first.merged.weights, in_memory.first.merged.weights);
  EXPECT_EQ(runs.second.merged.weights, in_memory.second.merged.weights);
  fs::remove_all(dir);
}

TEST(ShardedEngineTest, BoundedStoreChargesEachShardsOffsetsOnce) {
  // A bounded miss reads the row's offsets pair from the shard mapping:
  // the store counts every shard's header and offsets pages once, at
  // open, for its lifetime. Two readers missing over and over in shard 0
  // count their own caches, one fixed size each, on top of that.
  const Graph g = RegularGraph();
  const std::string dir = TempDir("grw_store_offsets");
  const ShardManifest m = ShardInto(g, dir, 4);
  ShardStore::Options options;
  options.resident_budget_bytes = 1;
  const ShardStore store(LoadShardManifest(dir), options);
  const auto rows = static_cast<VertexId>(m.shards[0].num_rows);
  EXPECT_EQ(store.open_bytes(), OffsetsBytes(m));
  const ShardedAccess a(store);
  const ShardedAccess b(store);
  for (VertexId v = 0; v < rows; ++v) {
    ASSERT_EQ(a.Degree(v), g.Degree(v));
    ASSERT_EQ(b.Degree(rows - 1 - v), g.Degree(rows - 1 - v));
  }
  ASSERT_EQ(a.stats().faults, rows);
  ASSERT_EQ(b.stats().faults, rows);
  EXPECT_GT(a.stats().peak_resident_bytes, 0u);
  EXPECT_EQ(a.stats().peak_resident_bytes, b.stats().peak_resident_bytes);
  EXPECT_EQ(store.open_bytes(), OffsetsBytes(m));
  fs::remove_all(dir);
}

TEST(ShardedEngineTest, ShardStatsCoverOnlyTheirOwnRun) {
  // Two identical runs, one after the other, on one bounded store: each
  // counts its own readers' reads (same seeds, same walk, same counts),
  // not the store's running totals, and its peak is its own caches plus
  // the offsets the store mapped at open.
  Rng rng(37);
  const Graph g = LargestConnectedComponent(HolmeKim(400, 4, 0.3, rng));
  const std::string dir = TempDir("grw_engine_stats_delta");
  const ShardManifest m = ShardInto(g, dir, 8);
  ShardStore::Options store_options;
  store_options.resident_budget_bytes = m.TotalShardBytes() / 4;
  const ShardStore store(LoadShardManifest(dir), store_options);
  const EstimatorConfig config{4, 2, true, false};
  EngineOptions options = BaseOptions(/*chains=*/2, /*threads=*/1);
  options.max_steps = 2000;

  const EngineResult first = EstimationEngine(store, config, options).Run();
  const EngineResult second = EstimationEngine(store, config, options).Run();
  EXPECT_GT(first.shards.faults, 0u);
  EXPECT_GT(first.shards.hits, 0u);
  EXPECT_GT(first.shards.evictions, 0u);
  ExpectSameShardCounters(second.shards, first.shards);
  EXPECT_EQ(store.stats().faults, 2 * first.shards.faults);
  const uint64_t cache = ShardedAccess(store).stats().peak_resident_bytes;
  EXPECT_EQ(first.shards.peak_resident_bytes, 2 * cache + OffsetsBytes(m));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace grw
