// Tests for GraphSource::Open (graph/source.*): one open path across
// text edge lists, monolithic `.grwb` snapshots, and sharded manifests —
// kind auto-detection, OpenOptions plumbing, content identity, typed
// corruption errors, and the text parser staying equivalent.

#include "graph/source.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/sharding.h"
#include "util/rng.h"

namespace grw {
namespace {

namespace fs = std::filesystem;

class SourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test case as its own process (possibly in
    // parallel), so the directory must be unique per process.
    dir_ = (fs::temp_directory_path() /
            ("grw_source_test." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Rng rng(7);
    g_ = LargestConnectedComponent(HolmeKim(300, 4, 0.4, rng));
    text_ = dir_ + "/g.edges";
    binary_ = dir_ + "/g.grwb";
    sharded_ = dir_ + "/g.shards";
    SaveEdgeList(g_, text_);
    SaveGraphBinary(g_, binary_);
    ShardingOptions options;
    options.num_shards = 3;
    WriteShardedGraph(g_, sharded_, options);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_, text_, binary_, sharded_;
  Graph g_;
};

TEST_F(SourceTest, OpenAutoDetectsAllThreeKinds) {
  OpenOptions options;
  options.largest_cc = false;  // the fixture graph is already one CC

  const GraphSource text = GraphSource::Open(text_, options);
  EXPECT_EQ(text.kind(), GraphSourceKind::kText);
  EXPECT_FALSE(text.sharded());
  EXPECT_EQ(text.NumNodes(), g_.NumNodes());
  EXPECT_EQ(text.NumEdges(), g_.NumEdges());
  EXPECT_EQ(text.content_checksum(), 0u);  // parsed content: no checksum

  const GraphSource binary = GraphSource::Open(binary_, options);
  EXPECT_EQ(binary.kind(), GraphSourceKind::kBinary);
  EXPECT_EQ(binary.NumNodes(), g_.NumNodes());
  EXPECT_EQ(binary.content_checksum(),
            InspectGraphBinary(binary_).data_checksum);
  EXPECT_NE(binary.content_checksum(), 0u);

  // Both the directory and the manifest file open the sharded graph:
  // with no budget as an in-memory copy, with one as a shard store.
  OpenOptions bounded = options;
  bounded.resident_budget_bytes = 1;
  const uint64_t checksum =
      ShardContentChecksum(LoadShardManifest(sharded_));
  EXPECT_NE(checksum, 0u);
  for (const std::string& path :
       {sharded_, sharded_ + "/" + kShardManifestName}) {
    for (const OpenOptions& open : {options, bounded}) {
      const GraphSource sharded = GraphSource::Open(path, open);
      EXPECT_EQ(sharded.kind(), GraphSourceKind::kSharded);
      EXPECT_EQ(sharded.sharded(), open.resident_budget_bytes > 0);
      EXPECT_EQ(sharded.NumNodes(), g_.NumNodes());
      EXPECT_EQ(sharded.NumEdges(), g_.NumEdges());
      EXPECT_EQ(sharded.content_checksum(), checksum);
    }
  }
}

TEST_F(SourceTest, KindMismatchedAccessorsThrowLogicError) {
  const GraphSource binary = GraphSource::Open(binary_);
  EXPECT_NO_THROW(binary.graph());
  EXPECT_THROW(binary.shards(), std::logic_error);
  // With no budget a shard directory reads through graph(), with one
  // through shards().
  const GraphSource copied = GraphSource::Open(sharded_);
  EXPECT_NO_THROW(copied.graph());
  EXPECT_THROW(copied.shards(), std::logic_error);
  const GraphSource stored =
      GraphSource::Open(sharded_, {.resident_budget_bytes = 1});
  EXPECT_NO_THROW(stored.shards());
  EXPECT_THROW(stored.graph(), std::logic_error);
}

TEST_F(SourceTest, UnboundedShardOpenIsTheGrwbsCsr) {
  // The copy is the `.grwb`'s CSR element for element: at one shard, at
  // several, and with isolated rows (empty lists at a shard's edges and
  // inside it).
  const auto expect_same_csr = [&](const std::string& grwb,
                                   uint32_t shards) {
    SCOPED_TRACE(grwb + ", " + std::to_string(shards) + " shard(s)");
    const Graph want = GraphSource::Open(grwb).graph();
    const std::string dir = dir_ + "/copy.shards";
    ShardingOptions sharding;
    sharding.num_shards = shards;
    WriteShardedGraph(want, dir, sharding);
    const Graph got = GraphSource::Open(dir).graph();
    const auto equal = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(equal(got.RawOffsets(), want.RawOffsets()));
    EXPECT_TRUE(equal(got.RawNeighbors(), want.RawNeighbors()));
    fs::remove_all(dir);
  };
  for (const uint32_t shards : {1u, 3u, 8u}) expect_same_csr(binary_, shards);
  // Nodes 0, 4, 5 and 9 are isolated.
  const std::string isolated = dir_ + "/isolated.grwb";
  SaveGraphBinary(
      FromEdges(10, {{1, 2}, {2, 3}, {1, 3}, {6, 7}, {7, 8}, {3, 6}}),
      isolated);
  for (const uint32_t shards : {1u, 4u, 10u}) {
    expect_same_csr(isolated, shards);
  }
}

TEST_F(SourceTest, OpenMatchesDeprecatedAliases) {
  // The text parser and the unified path must load identical graphs.
  // (`.grwb` has no loader besides GraphSource::Open any more.)
  OpenOptions options;
  options.largest_cc = false;
  const Graph text_alias = LoadEdgeList(text_, /*largest_cc=*/false);
  const Graph text_source = GraphSource::Open(text_, options).graph();
  EXPECT_EQ(text_alias.Summary(), text_source.Summary());
}

TEST_F(SourceTest, OpenOptionsPlumbing) {
  // By default no open path builds an index: walks read by binary
  // search, and exact ESU counting attaches its own.
  EXPECT_EQ(
      GraphSource::Open(binary_, OpenOptions{}).graph().adjacency_index(),
      nullptr);
  // build_index reaches the monolithic kinds.
  OpenOptions with_index;
  with_index.build_index = true;
  EXPECT_NE(GraphSource::Open(binary_, with_index)
                .graph()
                .adjacency_index(),
            nullptr);

  // The resident budget lands in the shard store's options and stats.
  OpenOptions budget;
  budget.resident_budget_bytes = 123456;
  const GraphSource sharded = GraphSource::Open(sharded_, budget);
  EXPECT_EQ(sharded.shards().options().resident_budget_bytes, 123456u);
  EXPECT_EQ(sharded.shards().stats().budget_bytes, 123456u);
}

TEST_F(SourceTest, CopiesShareTheBacking) {
  const GraphSource original =
      GraphSource::Open(sharded_, {.resident_budget_bytes = 1});
  const GraphSource copy = original;
  // Same store object, not a second mmap of the graph.
  EXPECT_EQ(&copy.shards(), &original.shards());
  // The same arrays, not a second copy of the shards or the mapping.
  for (const std::string& path : {sharded_, binary_}) {
    const GraphSource resident = GraphSource::Open(path);
    const GraphSource resident_copy = resident;
    EXPECT_EQ(resident_copy.graph().RawNeighbors().data(),
              resident.graph().RawNeighbors().data());
  }
}

TEST_F(SourceTest, SummaryNamesTheKind) {
  EXPECT_NE(GraphSource::Open(binary_).Summary().find("n="),
            std::string::npos);
  // The kind names the storage, budget or not.
  for (const uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
    const std::string sharded_summary =
        GraphSource::Open(sharded_, {.resident_budget_bytes = budget})
            .Summary();
    EXPECT_NE(sharded_summary.find("kind=sharded shards=3"),
              std::string::npos)
        << sharded_summary;
  }
}

TEST_F(SourceTest, FromGraphWrapsInMemoryGraphs) {
  const GraphSource source = GraphSource::FromGraph(g_, "unit-test");
  EXPECT_FALSE(source.sharded());
  EXPECT_EQ(source.NumNodes(), g_.NumNodes());
  EXPECT_EQ(source.path(), "unit-test");
  EXPECT_EQ(source.content_checksum(), 0u);
}

TEST_F(SourceTest, CorruptionThrowsTypedErrorForEveryKind) {
  // One catch type quarantines every layout (the grw_serve contract).
  const auto flip = [](const std::string& path, uint64_t offset) {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    unsigned char b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    b ^= 1u;
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);
  };
  OpenOptions verify;
  verify.verify = true;

  // Monolithic: flip a payload byte past the header + offsets.
  flip(binary_, 64 + (uint64_t{g_.NumNodes()} + 1) * 8 + 1);
  EXPECT_THROW(GraphSource::Open(binary_, verify), SnapshotCorruptError);

  // Sharded: flip a payload byte in shard 2; the eager per-shard probe
  // at open does not read payloads, so only verify=true catches it at
  // open, with or without a budget.
  const ShardManifest m = LoadShardManifest(sharded_);
  flip(m.ShardPath(2), 64 + (m.shards[2].num_rows + 1) * 8 + 1);
  EXPECT_THROW(GraphSource::Open(sharded_, verify), SnapshotCorruptError);
  OpenOptions verify_bounded = verify;
  verify_bounded.resident_budget_bytes = 1;
  EXPECT_THROW(GraphSource::Open(sharded_, verify_bounded),
               SnapshotCorruptError);

  // Sharded with an offsets entry of shard 0 pushed past its neighbors
  // slice (its top byte flipped): the copy made by an open with no
  // budget checks every offset it rebases, without verify.
  const uint64_t row = m.shards[0].num_rows / 2;
  flip(m.ShardPath(0), 64 + row * 8 + 7);
  try {
    GraphSource::Open(sharded_);
    ADD_FAILURE() << "expected the copy to refuse shard 0's offsets";
  } catch (const SnapshotCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("not monotone"), std::string::npos)
        << e.what();
  }

  // Sharded with a missing shard fails even without verify: the eager
  // header probe at open requires every named shard to exist.
  fs::remove(m.ShardPath(1));
  EXPECT_THROW(GraphSource::Open(sharded_), SnapshotCorruptError);
}

TEST_F(SourceTest, OpenRejectsMissingPath) {
  EXPECT_THROW(GraphSource::Open(dir_ + "/nope.edges"), std::runtime_error);
}

}  // namespace
}  // namespace grw
