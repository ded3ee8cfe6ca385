// Tests for the sharded `.grwb` storage layout (graph/sharding.*):
// write/load round trips, partition invariants, the manifest's degree
// histogram, crash-safety litter, and — pinned message by message — the
// corruption taxonomy (bit flip, missing shard, range overlap, stale
// manifest) that LoadShardManifest/MapShard must report as typed,
// path-qualified SnapshotCorruptError.

#include "graph/sharding.h"

#include <gtest/gtest.h>

#include <bit>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/source.h"
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

Graph TestGraph() {
  Rng rng(29);
  return LargestConnectedComponent(HolmeKim(500, 4, 0.3, rng));
}

// Reassembles the full CSR from the shards and compares it byte for
// byte against the source graph — the storage layer's ground truth.
void ExpectShardsReproduceGraph(const ShardManifest& manifest,
                                const Graph& g) {
  ASSERT_EQ(manifest.total_nodes, g.NumNodes());
  ASSERT_EQ(manifest.total_half_edges, 2 * g.NumEdges());
  for (uint32_t s = 0; s < manifest.NumShards(); ++s) {
    const MappedShard shard = MapShard(manifest, s, /*verify_checksum=*/true);
    ASSERT_EQ(shard.index(), s);
    ASSERT_EQ(shard.first_node(),
              static_cast<VertexId>(manifest.shards[s].first_node));
    const std::span<const uint64_t> offsets = shard.RawOffsets();
    const std::span<const VertexId> ids = shard.RawNeighbors();
    ASSERT_EQ(offsets.size(), manifest.shards[s].num_rows + 1);
    ASSERT_EQ(ids.size(), manifest.shards[s].num_half_edges);
    for (uint64_t r = 0; r + 1 < offsets.size(); ++r) {
      const VertexId v = shard.first_node() + static_cast<VertexId>(r);
      ASSERT_EQ(offsets[r + 1] - offsets[r], g.Degree(v)) << "node " << v;
      const auto got = ids.subspan(offsets[r], offsets[r + 1] - offsets[r]);
      const auto want = g.Neighbors(v);
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "node " << v << " slot " << i;
      }
    }
  }
}

TEST(ShardingTest, RoundTripIsBitIdenticalAcrossShardCounts) {
  const Graph g = TestGraph();
  const std::string dir = TempDir("grw_shard_roundtrip");
  for (uint32_t shards : {1u, 3u, 7u}) {
    ShardingOptions options;
    options.num_shards = shards;
    const ShardManifest written = WriteShardedGraph(g, dir, options);
    EXPECT_EQ(written.NumShards(), shards);
    // Reload from disk rather than trusting the writer's return value.
    const ShardManifest loaded =
        LoadShardManifest(dir, /*verify_shards=*/true);
    EXPECT_EQ(loaded.NumShards(), shards);
    ExpectShardsReproduceGraph(loaded, g);
    EXPECT_EQ(ShardContentChecksum(loaded), ShardContentChecksum(written));
  }
  fs::remove_all(dir);
}

TEST(ShardingTest, TrailingIsolatedRowsLandInTheLastShard) {
  // Isolated rows add no half-edge mass, so a mass-balanced cut can stop
  // before them; the last shard must still end at the last row.
  const Graph g = FromEdges(6, {{0, 1}, {1, 2}});  // 3, 4, 5 isolated
  const std::string dir = TempDir("grw_shard_isolated");
  for (uint32_t shards : {1u, 2u, 3u}) {
    ShardingOptions options;
    options.num_shards = shards;
    WriteShardedGraph(g, dir, options);
    const ShardManifest loaded =
        LoadShardManifest(dir, /*verify_shards=*/true);
    EXPECT_EQ(loaded.shards.back().first_node + loaded.shards.back().num_rows,
              g.NumNodes());
    ExpectShardsReproduceGraph(loaded, g);
  }
  fs::remove_all(dir);
}

TEST(ShardingTest, ManifestPartitionInvariantsAndHistogram) {
  const Graph g = TestGraph();
  const std::string dir = TempDir("grw_shard_manifest");
  ShardingOptions options;
  options.num_shards = 5;
  options.flags = kGrwbFlagDegreeRelabeled;
  WriteShardedGraph(g, dir, options);
  const ShardManifest m = LoadShardManifest(dir);

  EXPECT_TRUE(m.DegreeRelabeled());
  EXPECT_EQ(m.version, kGrwsVersion);
  // Contiguous, ordered, non-empty ranges covering [0, n).
  uint64_t expected_first = 0;
  uint64_t half_sum = 0;
  for (const ShardInfo& s : m.shards) {
    EXPECT_EQ(s.first_node, expected_first);
    EXPECT_GE(s.num_rows, 1u);
    expected_first += s.num_rows;
    half_sum += s.num_half_edges;
  }
  EXPECT_EQ(expected_first, m.total_nodes);
  EXPECT_EQ(half_sum, m.total_half_edges);

  // The histogram counts every node exactly once, in its bit-width
  // bucket.
  std::array<uint64_t, kDegreeHistogramBuckets> want = {};
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    ++want[std::bit_width(g.Degree(v))];
  }
  for (int b = 0; b < kDegreeHistogramBuckets; ++b) {
    EXPECT_EQ(m.degree_histogram[static_cast<size_t>(b)],
              want[static_cast<size_t>(b)])
        << "bucket " << b;
  }

  // ShardOf agrees with the ranges, including both boundaries of every
  // shard.
  for (uint32_t s = 0; s < m.NumShards(); ++s) {
    const ShardInfo& info = m.shards[s];
    EXPECT_EQ(m.ShardOf(static_cast<VertexId>(info.first_node)), s);
    EXPECT_EQ(m.ShardOf(static_cast<VertexId>(info.first_node +
                                              info.num_rows - 1)),
              s);
  }
  fs::remove_all(dir);
}

TEST(ShardingTest, TargetBytesModeCutsNearTheTarget) {
  const Graph g = TestGraph();
  const std::string dir = TempDir("grw_shard_bytes");
  ShardingOptions options;
  options.target_shard_bytes = 8 << 10;  // 8 KiB: forces several shards
  const ShardManifest m = WriteShardedGraph(g, dir, options);
  EXPECT_GT(m.NumShards(), 1u);
  ExpectShardsReproduceGraph(m, g);
  // Greedy cutting: every shard except possibly the last crossed the
  // target only by its final row, so no shard is wildly oversized
  // (header + one max-degree row is the worst case).
  const uint64_t slack =
      64 + 2 * sizeof(uint64_t) + uint64_t{g.MaxDegree()} * sizeof(VertexId);
  for (const ShardInfo& s : m.shards) {
    EXPECT_LE(s.file_bytes, options.target_shard_bytes + slack);
  }
  fs::remove_all(dir);
}

TEST(ShardingTest, WriterRejectsBadInputs) {
  const Graph g = TestGraph();
  const std::string dir = TempDir("grw_shard_badinput");
  EXPECT_THROW(WriteShardedGraph(Graph(), dir), std::invalid_argument);
  ShardingOptions too_many;
  too_many.num_shards = g.NumNodes() + 1;
  EXPECT_THROW(WriteShardedGraph(g, dir, too_many), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(ShardingTest, WriteLeavesNoTempLitter) {
  const Graph g = TestGraph();
  const std::string dir = TempDir("grw_shard_litter");
  ShardingOptions options;
  options.num_shards = 4;
  WriteShardedGraph(g, dir, options);
  // Exactly the manifest plus its four shards — no .tmp staging files.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == kShardManifestName ||
                name.starts_with("shard-"))
        << name;
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
  EXPECT_EQ(entries, 5u);
  // Overwrite in place (re-shard with a different count): still clean,
  // still valid. Stale extra shards from the previous generation remain
  // on disk but the manifest no longer names them.
  options.num_shards = 2;
  WriteShardedGraph(g, dir, options);
  const ShardManifest m = LoadShardManifest(dir, /*verify_shards=*/true);
  EXPECT_EQ(m.NumShards(), 2u);
  fs::remove_all(dir);
}

TEST(ShardingTest, ContentChecksumTracksPartitionAndPayload) {
  const Graph g = TestGraph();
  const std::string dir_a = TempDir("grw_shard_sum_a");
  const std::string dir_b = TempDir("grw_shard_sum_b");
  ShardingOptions options;
  options.num_shards = 3;
  const uint64_t a = ShardContentChecksum(WriteShardedGraph(g, dir_a, options));
  // Deterministic: the same graph sharded the same way hashes the same.
  const uint64_t b = ShardContentChecksum(WriteShardedGraph(g, dir_b, options));
  EXPECT_EQ(a, b);
  // A different partition of the same bytes is a different content
  // identity (residency sharing must not mix shard layouts).
  options.num_shards = 4;
  const uint64_t c = ShardContentChecksum(WriteShardedGraph(g, dir_b, options));
  EXPECT_NE(a, c);
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(ShardingTest, IsShardManifestPathDetection) {
  const Graph g = TestGraph();
  const std::string dir = TempDir("grw_shard_detect");
  WriteShardedGraph(g, dir, {});
  EXPECT_TRUE(IsShardManifestPath(dir));
  EXPECT_TRUE(IsShardManifestPath(dir + "/" + kShardManifestName));
  EXPECT_FALSE(IsShardManifestPath(dir + "/shard-00000.grws"));
  EXPECT_FALSE(IsShardManifestPath(dir + "/nope"));
  const std::string empty = TempDir("grw_shard_detect_empty");
  fs::create_directories(empty);
  EXPECT_FALSE(IsShardManifestPath(empty));
  fs::remove_all(dir);
  fs::remove_all(empty);
}

// ------------------------------------------------------------------------
// Corruption taxonomy. Each failure shape gets a distinct, path-qualified
// SnapshotCorruptError; the fixture re-shards a fresh copy per test.

class ShardingCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("grw_shard_corrupt");
    g_ = TestGraph();
    ShardingOptions options;
    options.num_shards = 3;
    manifest_ = WriteShardedGraph(g_, dir_, options);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void Poke(const std::string& path, uint64_t offset, unsigned char value) {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, 1, 1, f), 1u);
    std::fclose(f);
  }

  unsigned char Peek(const std::string& path, uint64_t offset) {
    unsigned char value = 0;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    EXPECT_EQ(std::fread(&value, 1, 1, f), 1u);
    std::fclose(f);
    return value;
  }

  // Rewrites the manifest from the (tampered) `manifest_` fields with
  // CORRECT checksums, so only the semantic validation can object — the
  // way a buggy or malicious resharder would corrupt the layout.
  static constexpr uint64_t kBasis = 0xcbf29ce484222325ull;

  // FNV-1a, as the writer computes it.
  static uint64_t fnv(const void* data, size_t bytes, uint64_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      seed ^= p[i];
      seed *= 0x100000001b3ull;
    }
    return seed;
  }

  void RewriteManifestWithValidChecksums() {
    struct {
      uint32_t magic = kGrwmMagic;
      uint32_t version = kGrwsVersion;
      uint32_t num_shards = 0;
      uint32_t flags = 0;
      uint64_t total_nodes = 0;
      uint64_t total_half_edges = 0;
      uint64_t table_checksum = 0;
      uint64_t reserved = 0;
      uint64_t reserved2 = 0;
      uint64_t header_checksum = 0;
    } h;
    h.num_shards = manifest_.NumShards();
    h.flags = manifest_.flags;
    h.total_nodes = manifest_.total_nodes;
    h.total_half_edges = manifest_.total_half_edges;
    h.table_checksum =
        fnv(manifest_.shards.data(),
            manifest_.shards.size() * sizeof(ShardInfo),
            fnv(manifest_.degree_histogram.data(),
                sizeof(manifest_.degree_histogram), kBasis));
    h.header_checksum = fnv(&h, 56, kBasis);
    std::FILE* f = std::fopen(manifest_.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&h, sizeof h, 1, f), 1u);
    ASSERT_EQ(std::fwrite(manifest_.degree_histogram.data(),
                          sizeof(manifest_.degree_histogram), 1, f),
              1u);
    ASSERT_EQ(std::fwrite(manifest_.shards.data(), sizeof(ShardInfo),
                          manifest_.shards.size(), f),
              manifest_.shards.size());
    std::fclose(f);
  }

  // Overwrites the u64 at byte `at` of a 64-byte file header and
  // re-forges the header checksum (its last 8 bytes) to match.
  void ForgeHeaderField(const std::string& path, uint64_t at,
                        uint64_t value) {
    std::vector<unsigned char> bytes(fs::file_size(path));
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::memcpy(bytes.data() + at, &value, sizeof value);
    const uint64_t checksum = fnv(bytes.data(), 56, kBasis);
    std::memcpy(bytes.data() + 56, &checksum, sizeof checksum);
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, 64, f), 64u);
    std::fclose(f);
  }

  uint64_t ReadU64(const std::string& path, uint64_t at) {
    uint64_t value = 0;
    for (int b = 7; b >= 0; --b) value = (value << 8) | Peek(path, at + b);
    return value;
  }

  void WriteU64(const std::string& path, uint64_t at, uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      Poke(path, at + b, static_cast<unsigned char>(value >> (8 * b)));
    }
  }

  template <typename Fn>
  std::string CorruptionMessage(Fn load) {
    try {
      load();
    } catch (const SnapshotCorruptError& e) {
      return e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception type: " << e.what();
      return {};
    }
    ADD_FAILURE() << "expected SnapshotCorruptError";
    return {};
  }

  std::string dir_;
  Graph g_;
  ShardManifest manifest_;
};

TEST_F(ShardingCorruptionTest, BitFlippedShardPayload) {
  // Flip the low bit of a neighbor byte in shard 1, past its header and
  // offsets: the header stays valid, lazy mapping succeeds, and only the
  // payload checksum can catch it.
  const std::string shard = manifest_.ShardPath(1);
  const uint64_t payload =
      64 + (manifest_.shards[1].num_rows + 1) * sizeof(uint64_t);
  Poke(shard, payload, Peek(shard, payload) ^ 1u);
  EXPECT_NO_THROW(MapShard(manifest_, 1));
  const std::string msg = CorruptionMessage(
      [&] { MapShard(manifest_, 1, /*verify_checksum=*/true); });
  EXPECT_NE(msg.find(shard), std::string::npos) << msg;
  EXPECT_NE(msg.find("data checksum mismatch (corrupted shard payload)"),
            std::string::npos)
      << msg;
  // The verifying manifest load walks every shard and hits the same wall.
  EXPECT_THROW(LoadShardManifest(dir_, /*verify_shards=*/true),
               SnapshotCorruptError);
  // Untouched shards still verify clean.
  EXPECT_NO_THROW(MapShard(manifest_, 0, /*verify_checksum=*/true));
  EXPECT_NO_THROW(MapShard(manifest_, 2, /*verify_checksum=*/true));
}

TEST_F(ShardingCorruptionTest, MissingShardFile) {
  fs::remove(manifest_.ShardPath(2));
  // The manifest itself still loads lazily (it is internally consistent);
  // touching the missing shard is what fails, and the verifying load
  // fails up front.
  const ShardManifest m = LoadShardManifest(dir_);
  std::string msg = CorruptionMessage([&] { MapShard(m, 2); });
  EXPECT_NE(msg.find(m.ShardPath(2)), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing shard file"), std::string::npos) << msg;
  msg = CorruptionMessage(
      [&] { LoadShardManifest(dir_, /*verify_shards=*/true); });
  EXPECT_NE(msg.find("missing shard file"), std::string::npos) << msg;
}

TEST_F(ShardingCorruptionTest, OverlappingShardRanges) {
  // Shard 1 claims to start one row early — inside shard 0's range —
  // with all checksums forged to match, so only the partition validation
  // can object.
  manifest_.shards[1].first_node -= 1;
  RewriteManifestWithValidChecksums();
  const std::string msg = CorruptionMessage([&] { LoadShardManifest(dir_); });
  EXPECT_NE(msg.find(manifest_.path), std::string::npos) << msg;
  EXPECT_NE(msg.find("shard ranges overlap at shard 1"), std::string::npos)
      << msg;
}

TEST_F(ShardingCorruptionTest, GapInShardRanges) {
  manifest_.shards[1].first_node += 1;
  RewriteManifestWithValidChecksums();
  const std::string msg = CorruptionMessage([&] { LoadShardManifest(dir_); });
  EXPECT_NE(msg.find("gap in shard ranges before shard 1"),
            std::string::npos)
      << msg;
}

TEST_F(ShardingCorruptionTest, StaleManifestChecksumDisagreement) {
  // The stale-manifest shape: a shard was regenerated (its header and
  // payload agree with each other) but the manifest still records the
  // old checksum. Forge it by flipping the manifest's recorded checksum
  // with the table/header checksums made valid again.
  manifest_.shards[1].data_checksum ^= 0xDEADBEEFull;
  RewriteManifestWithValidChecksums();
  const ShardManifest m = LoadShardManifest(dir_);  // table is consistent
  std::string msg = CorruptionMessage([&] { MapShard(m, 1); });
  EXPECT_NE(msg.find(m.ShardPath(1)), std::string::npos) << msg;
  EXPECT_NE(msg.find("checksum disagreement between shard and manifest"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("stale manifest"), std::string::npos) << msg;
  // Shards the manifest still describes correctly keep loading.
  EXPECT_NO_THROW(MapShard(m, 0, /*verify_checksum=*/true));
}

TEST_F(ShardingCorruptionTest, TamperedShardTableWithoutRefix) {
  // A raw byte edit in the shard table (no checksum forgery) dies on the
  // table checksum before any semantic check runs.
  const uint64_t table_start =
      64 + uint64_t{kDegreeHistogramBuckets} * sizeof(uint64_t);
  const uint64_t target = table_start + sizeof(ShardInfo) + 8;
  Poke(manifest_.path, target, Peek(manifest_.path, target) ^ 0x5Au);
  const std::string msg = CorruptionMessage([&] { LoadShardManifest(dir_); });
  EXPECT_NE(msg.find("shard-table checksum mismatch"), std::string::npos)
      << msg;
}

TEST_F(ShardingCorruptionTest, ManifestHeaderDamage) {
  Poke(manifest_.path, 16, 0xFF);  // total_nodes low byte
  EXPECT_THROW(LoadShardManifest(dir_), SnapshotCorruptError);

  RewriteManifestWithValidChecksums();
  Poke(manifest_.path, 0, 'Z');  // magic
  const std::string msg = CorruptionMessage([&] { LoadShardManifest(dir_); });
  EXPECT_NE(msg.find("bad magic (not a sharded-graph manifest)"),
            std::string::npos)
      << msg;
  EXPECT_FALSE(IsShardManifestPath(dir_));
}

TEST_F(ShardingCorruptionTest, TruncatedManifest) {
  fs::resize_file(manifest_.path, fs::file_size(manifest_.path) - 8);
  const std::string msg = CorruptionMessage([&] { LoadShardManifest(dir_); });
  EXPECT_NE(msg.find("truncated or oversized manifest"), std::string::npos)
      << msg;
}

TEST_F(ShardingCorruptionTest, ShardHeaderDamage) {
  const std::string shard = manifest_.ShardPath(0);
  Poke(shard, 16, 0xFF);  // first_node low byte: header checksum mismatch
  const std::string msg = CorruptionMessage([&] { MapShard(manifest_, 0); });
  EXPECT_NE(msg.find("shard header checksum mismatch"), std::string::npos)
      << msg;
}

TEST_F(ShardingCorruptionTest, ForgedSizeFieldsAreRejectedAtOpen) {
  // One lie per size field, with every header, table and data checksum
  // forged to match, so only the size checks can object. Each must be
  // refused at open, without verify: a count that slips through turns
  // into out-of-bounds reads during the walk.
  //   Shard header: magic 0, version 4, shard_index 8, flags 12,
  //   first_node 16, num_rows 24, total_nodes 32, num_half_edges 40,
  //   data_checksum 48.  Manifest header: num_shards 8 (u32),
  //   total_nodes 16, total_half_edges 24.
  constexpr uint64_t k2to62 = uint64_t{1} << 62;
  constexpr uint32_t kShard = 1;
  const std::string shard = manifest_.ShardPath(kShard);
  const uint64_t rows = manifest_.shards[kShard].num_rows;
  const uint64_t half = manifest_.shards[kShard].num_half_edges;
  const uint64_t last_offset = 64 + rows * sizeof(uint64_t);

  // Rewrites the shard's last offset, re-forges its data checksum over
  // the payload bytes, and records the lie in the manifest as well.
  const auto forge_shard = [&](uint64_t new_rows, uint64_t new_half) {
    WriteU64(shard, last_offset, new_half);
    std::vector<unsigned char> bytes(fs::file_size(shard));
    std::FILE* f = std::fopen(shard.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    const uint64_t data = fnv(bytes.data() + 64, bytes.size() - 64, kBasis);
    ForgeHeaderField(shard, 24, new_rows);
    ForgeHeaderField(shard, 40, new_half);
    ForgeHeaderField(shard, 48, data);
    manifest_.total_half_edges += new_half - half;
    manifest_.shards[kShard].num_rows = new_rows;
    manifest_.shards[kShard].num_half_edges = new_half;
    manifest_.shards[kShard].data_checksum = data;
    RewriteManifestWithValidChecksums();
  };

  struct Row {
    const char* field;
    std::function<void()> lie;
  };
  const Row rows_table[] = {
      // The product (half + 2^62) * 4 wraps to half * 4, so a size check
      // that multiplies sees a file of exactly the right length.
      {"shard num_half_edges + 2^62",
       [&] { forge_shard(rows, half + k2to62); }},
      {"shard num_half_edges + 1", [&] { forge_shard(rows, half + 1); }},
      // (rows + 2^61 + 1) * 8 wraps the same way.
      {"shard num_rows + 2^61",
       [&] { forge_shard(rows + (uint64_t{1} << 61), half); }},
      {"manifest num_shards + 1",
       [&] {
         ForgeHeaderField(manifest_.path, 8,
                          (ReadU64(manifest_.path, 8) & ~0xFFFFFFFFull) |
                              (manifest_.NumShards() + 1));
       }},
      {"manifest total_half_edges + 2^62",
       [&] {
         ForgeHeaderField(manifest_.path, 24,
                          manifest_.total_half_edges + k2to62);
       }},
  };
  for (const Row& row : rows_table) {
    SCOPED_TRACE(row.field);
    ShardingOptions options;
    options.num_shards = 3;
    manifest_ = WriteShardedGraph(g_, dir_, options);
    ASSERT_NO_THROW(GraphSource::Open(dir_));
    row.lie();
    EXPECT_THROW(GraphSource::Open(dir_), SnapshotCorruptError);
  }
}

}  // namespace
}  // namespace grw
