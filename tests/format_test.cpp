// Tests for the `.grwb` binary snapshot format (graph/format.*), the
// mmap zero-copy load path, and the degree-descending relabeling pass.

#include "graph/format.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "exact/exact.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/source.h"
#include "util/rng.h"

namespace grw {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// The lazy `.grwb` open.
Graph OpenGrwb(const std::string& path, bool verify = false) {
  return GraphSource::Open(path, {.verify = verify}).graph();
}

// Byte-level span equality of the two CSR arrays.
void ExpectIdenticalCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.RawOffsets().size(), b.RawOffsets().size());
  ASSERT_EQ(a.RawNeighbors().size(), b.RawNeighbors().size());
  for (size_t i = 0; i < a.RawOffsets().size(); ++i) {
    ASSERT_EQ(a.RawOffsets()[i], b.RawOffsets()[i]) << "offset " << i;
  }
  for (size_t i = 0; i < a.RawNeighbors().size(); ++i) {
    ASSERT_EQ(a.RawNeighbors()[i], b.RawNeighbors()[i]) << "neighbor " << i;
  }
}

TEST(FormatTest, RoundTripIsBitIdentical) {
  // Property over a spread of generated shapes: Build -> Save -> mmap-load
  // reproduces the exact CSR arrays and summary.
  Rng rng(11);
  const std::vector<Graph> graphs = {
      KarateClub(),
      Complete(6),
      Star(40),
      LargestConnectedComponent(ErdosRenyi(300, 900, rng)),
      LargestConnectedComponent(BarabasiAlbert(500, 3, rng)),
      LargestConnectedComponent(HolmeKim(400, 4, 0.4, rng)),
  };
  const std::string path = TempPath("grw_format_roundtrip.grwb");
  for (const Graph& g : graphs) {
    SaveGraphBinary(g, path);
    const Graph loaded = OpenGrwb(path, /*verify=*/true);
    EXPECT_EQ(loaded.Summary(), g.Summary());
    ExpectIdenticalCsr(g, loaded);
  }
  std::filesystem::remove(path);
}

TEST(FormatTest, RoundTripEmptyGraph) {
  const std::string path = TempPath("grw_format_empty.grwb");
  SaveGraphBinary(Graph(), path);
  const Graph loaded = OpenGrwb(path, /*verify=*/true);
  EXPECT_EQ(loaded.NumNodes(), 0u);
  EXPECT_EQ(loaded.NumEdges(), 0u);
  EXPECT_EQ(loaded.Summary(), Graph().Summary());
  std::filesystem::remove(path);
}

TEST(FormatTest, MmapLoadGivesIdenticalEstimates) {
  // The acceptance bar: a fixed-seed estimator run must be bit-identical
  // between the vector-backed and mmap-backed graphs.
  Rng rng(5);
  const Graph g = LargestConnectedComponent(HolmeKim(600, 4, 0.3, rng));
  const std::string path = TempPath("grw_format_estimates.grwb");
  SaveGraphBinary(g, path);
  const Graph mapped = OpenGrwb(path);

  const EstimatorConfig config{4, 2, true, false};
  const EstimateResult from_vectors =
      GraphletEstimator::Estimate(g, config, 20000, 42);
  const EstimateResult from_mmap =
      GraphletEstimator::Estimate(mapped, config, 20000, 42);
  ASSERT_EQ(from_vectors.concentrations.size(),
            from_mmap.concentrations.size());
  for (size_t i = 0; i < from_vectors.concentrations.size(); ++i) {
    EXPECT_EQ(from_vectors.concentrations[i], from_mmap.concentrations[i]);
  }
  std::filesystem::remove(path);
}

TEST(FormatTest, GraphSharesMappingAcrossCopies) {
  // Copying a mapped Graph must not copy the arrays: the spans of the
  // copy point at the same addresses (shared backing keeps them alive).
  const Graph g = KarateClub();
  const std::string path = TempPath("grw_format_copy.grwb");
  SaveGraphBinary(g, path);
  Graph copy;
  {
    const Graph mapped = OpenGrwb(path);
    copy = mapped;
    EXPECT_EQ(copy.RawNeighbors().data(), mapped.RawNeighbors().data());
  }
  // The original mapped Graph is gone; the backing must still be alive.
  EXPECT_EQ(copy.Summary(), g.Summary());
  std::filesystem::remove(path);
}

TEST(FormatTest, InspectReportsHeaderFields) {
  const Graph g = KarateClub();
  const std::string path = TempPath("grw_format_inspect.grwb");
  SaveGraphBinary(g, path, kGrwbFlagDegreeRelabeled);
  const GrwbInfo info = InspectGraphBinary(path);
  EXPECT_EQ(info.version, kGrwbVersion);
  EXPECT_EQ(info.num_nodes, g.NumNodes());
  EXPECT_EQ(info.num_half_edges, 2 * g.NumEdges());
  EXPECT_TRUE(info.DegreeRelabeled());
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

TEST(FormatTest, SnapshotChecksumIsStable) {
  // A fixed generated graph's data_checksum, computed by the byte loop
  // before the checksum kernel existed: files written by earlier builds
  // must keep verifying, and files written now must verify there.
  Rng rng(2016);
  const Graph g = HolmeKim(6000, 4, 0.3, rng);
  ASSERT_GE(g.RawOffsets().size_bytes() + g.RawNeighbors().size_bytes(),
            100u * 1000u);
  const std::string path = TempPath("grw_format_stable." +
                                    std::to_string(::getpid()) + ".grwb");
  SaveGraphBinary(g, path);
  EXPECT_EQ(InspectGraphBinary(path).data_checksum, 0xc3713560e7cb6e61ull);
  EXPECT_NO_THROW(OpenGrwb(path, /*verify=*/true));
  std::filesystem::remove(path);
}

class FormatCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, possibly in parallel, so
    // the file must be unique per process.
    path_ = TempPath("grw_format_corrupt." + std::to_string(::getpid()) +
                     ".grwb");
    SaveGraphBinary(KarateClub(), path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // Overwrites one byte at `offset` with `value`.
  void Poke(uint64_t offset, unsigned char value) {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, 1, 1, f), 1u);
    std::fclose(f);
  }

  void Truncate(uint64_t bytes) {
    std::filesystem::resize_file(path_, bytes);
  }

  std::string path_;
};

// Runs `load` expecting a SnapshotCorruptError (the subtype registries
// use to quarantine rather than retry) and returns its message so tests
// can assert the error is descriptive, not just thrown.
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

TEST_F(FormatCorruptionTest, RejectsBadMagic) {
  Poke(0, 'X');
  // Without the magic GraphSource::Open does not see a `.grwb` at all;
  // the header reader is what reports it.
  EXPECT_THROW(InspectGraphBinary(path_), std::runtime_error);
  EXPECT_FALSE(IsGraphBinaryFile(path_));
}

TEST_F(FormatCorruptionTest, RejectsUnsupportedVersion) {
  Poke(4, 99);  // version field; header checksum catches it first or not,
                // either way the load must throw
  EXPECT_THROW(OpenGrwb(path_), std::runtime_error);
}

TEST_F(FormatCorruptionTest, RejectsCorruptedHeaderField) {
  Poke(8, 0xFF);  // num_nodes low byte: header checksum mismatch
  EXPECT_THROW(OpenGrwb(path_), std::runtime_error);
}

TEST_F(FormatCorruptionTest, RejectsTruncatedFile) {
  Truncate(std::filesystem::file_size(path_) - 5);
  EXPECT_THROW(OpenGrwb(path_), std::runtime_error);
}

TEST_F(FormatCorruptionTest, RejectsFileShorterThanHeader) {
  Truncate(10);
  EXPECT_THROW(OpenGrwb(path_), std::runtime_error);
}

TEST_F(FormatCorruptionTest, RejectsForgedHeaderWithOverflowingSizes) {
  // Adversarial header: num_nodes = 2^61-1 makes (n+1)*8 wrap to 0, which
  // matched offsets_bytes == 0 before validation became overflow-safe.
  // The header checksum is forged correctly, so only the size checks can
  // catch it.
  struct {
    uint32_t magic = kGrwbMagic;
    uint32_t version = kGrwbVersion;
    uint64_t num_nodes = 0x1FFFFFFFFFFFFFFFull;
    uint64_t num_half_edges = 0;
    uint64_t offsets_bytes = 0;
    uint64_t neighbors_bytes = 0;
    uint64_t data_checksum = 0;
    uint32_t flags = 0;
    uint32_t reserved = 0;
    uint64_t header_checksum = 0;
  } header;
  const auto* bytes = reinterpret_cast<const unsigned char*>(&header);
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, as the writer computes it
  for (size_t i = 0; i < 56; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  header.header_checksum = h;
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&header, sizeof header, 1, f), 1u);
  std::fclose(f);
  EXPECT_THROW(OpenGrwb(path_, /*verify=*/true),
               std::runtime_error);
  EXPECT_THROW(OpenGrwb(path_), std::runtime_error);
}

TEST_F(FormatCorruptionTest, VerifyRejectsNonMonotoneOffsets) {
  // Bump a middle offset entry so offsets[v] > offsets[v+1] while the
  // first/last entries (the lazy spot-check) stay intact: the lazy load
  // accepts it, the verifying load must not.
  Poke(64 + 8 + 6, 0x7F);  // high-ish byte of offsets[1]
  EXPECT_NO_THROW(OpenGrwb(path_));
  EXPECT_THROW(OpenGrwb(path_, /*verify=*/true),
               std::runtime_error);
}

TEST_F(FormatCorruptionTest, VerifyRejectsOutOfRangeNeighborId) {
  const uint64_t data_start =
      64 + (uint64_t{KarateClub().NumNodes()} + 1) * 8;
  Poke(data_start + 2, 0xFF);  // neighbor id becomes >= num_nodes
  EXPECT_THROW(OpenGrwb(path_, /*verify=*/true),
               std::runtime_error);
}

TEST_F(FormatCorruptionTest, VerifyNamesTheFirstBadIndexPastTheFirstBlock) {
  // The verify scans screen whole blocks before they look at single
  // entries; two defects inside one whole block past the first still
  // report the first of them.
  Rng rng(5);
  const Graph g = HolmeKim(3000, 3, 0.3, rng);
  ASSERT_GT(g.RawNeighbors().size(), 5100u);
  SaveGraphBinary(g, path_);
  Poke(64 + 8 * 1500 + 6, 0x7F);  // offsets[1500] > offsets[1501]
  Poke(64 + 8 * 1100 + 6, 0x7F);  // offsets[1100] > offsets[1101]
  std::string msg = CorruptionMessage(
      [&] { OpenGrwb(path_, /*verify=*/true); });
  EXPECT_NE(msg.find("offsets array not monotone at node 1100"),
            std::string::npos)
      << msg;

  SaveGraphBinary(g, path_);
  const uint64_t ids_start = 64 + (uint64_t{g.NumNodes()} + 1) * 8;
  Poke(ids_start + 4 * 5100 + 3, 0xFF);  // ids >= 2^24 > num_nodes
  Poke(ids_start + 4 * 5000 + 3, 0xFF);
  msg = CorruptionMessage([&] { OpenGrwb(path_, /*verify=*/true); });
  EXPECT_NE(msg.find("neighbor id out of range at index 5000"),
            std::string::npos)
      << msg;
}

TEST_F(FormatCorruptionTest, ChecksumCatchesFlippedDataByte) {
  // Flip a neighbor byte past the offsets array: header still validates,
  // lazy load succeeds, checksummed load must throw.
  const uint64_t data_start =
      64 + (uint64_t{KarateClub().NumNodes()} + 1) * 8;
  Poke(data_start + 3, 0xAB);
  EXPECT_THROW(OpenGrwb(path_, /*verify=*/true),
               std::runtime_error);
}

TEST_F(FormatCorruptionTest, CorruptionErrorsAreTypedAndDescriptive) {
  // Every corruption path throws SnapshotCorruptError (so registries can
  // quarantine instead of retry) with a message naming the file and the
  // specific defect — "something went wrong" is not a diagnosis.

  // Bit-flipped payload byte: flip the low bit of a neighbor id's low
  // byte, which keeps the id in range (ids change by ±1) so the checksum
  // — not the range check — is what has to catch it.
  const uint64_t data_start =
      64 + (uint64_t{KarateClub().NumNodes()} + 1) * 8;
  unsigned char low = 0;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(data_start), SEEK_SET), 0);
    ASSERT_EQ(std::fread(&low, 1, 1, f), 1u);
    std::fclose(f);
  }
  Poke(data_start, low ^ 1u);
  std::string msg = CorruptionMessage(
      [&] { OpenGrwb(path_, /*verify=*/true); });
  EXPECT_NE(msg.find(path_), std::string::npos) << msg;
  EXPECT_NE(msg.find("data checksum mismatch"), std::string::npos) << msg;

  // Truncated tail: caught up front by the header/size cross-check,
  // naming both the actual and the implied size.
  SaveGraphBinary(KarateClub(), path_);
  Truncate(std::filesystem::file_size(path_) - 5);
  msg = CorruptionMessage([&] { OpenGrwb(path_); });
  EXPECT_NE(msg.find("truncated or oversized file"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("header implies"), std::string::npos) << msg;

  // Header/size mismatch: a forged neighbors_bytes that disagrees with
  // the actual file size (checksum re-forged so only the size check can
  // object). Bytes 24..31 hold neighbors_bytes; poke its low byte and
  // expect the header checksum to catch the edit first.
  SaveGraphBinary(KarateClub(), path_);
  Poke(24, 0xEE);
  msg = CorruptionMessage([&] { OpenGrwb(path_); });
  EXPECT_NE(msg.find("header checksum mismatch"), std::string::npos) << msg;

  // Garbage magic reports "not a .grwb snapshot", not a generic failure.
  SaveGraphBinary(KarateClub(), path_);
  Poke(0, 'Z');
  msg = CorruptionMessage([&] { InspectGraphBinary(path_); });
  EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
}

TEST_F(FormatCorruptionTest, ForgedSizeFieldsAreRejectedAtOpen) {
  // One lie per header size field, with the header and data checksums
  // forged to match, so only the size checks can object. Each must be
  // refused by the lazy open: a count that slips through turns into
  // out-of-bounds reads during the walk. Header layout: num_nodes 8,
  // num_half_edges 16, offsets_bytes 24, neighbors_bytes 32,
  // data_checksum 40, header_checksum 56.
  const auto fnv = [](const unsigned char* p, size_t n) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
    return h;
  };
  constexpr uint64_t k2to62 = uint64_t{1} << 62;
  const uint64_t n = KarateClub().NumNodes();
  const uint64_t half = 2 * KarateClub().NumEdges();
  struct Row {
    const char* field;
    uint64_t at;
    uint64_t value;
    bool bump_last_offset;  // keep offsets[n] == num_half_edges
  };
  const Row rows[] = {
      {"num_nodes + 1", 8, n + 1, false},
      {"num_nodes + 2^62", 8, n + k2to62, false},
      {"num_half_edges + 2^62", 16, half + k2to62, true},
      {"offsets_bytes + 2^61", 24, (n + 1) * 8 + (uint64_t{1} << 61), false},
      {"neighbors_bytes + 2^62", 32, half * 4 + k2to62, false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    SaveGraphBinary(KarateClub(), path_);
    std::vector<unsigned char> bytes(std::filesystem::file_size(path_));
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    std::memcpy(bytes.data() + row.at, &row.value, sizeof row.value);
    if (row.bump_last_offset) {
      std::memcpy(bytes.data() + 64 + n * 8, &row.value, sizeof row.value);
    }
    const uint64_t data = fnv(bytes.data() + 64, bytes.size() - 64);
    std::memcpy(bytes.data() + 40, &data, sizeof data);
    const uint64_t header = fnv(bytes.data(), 56);
    std::memcpy(bytes.data() + 56, &header, sizeof header);
    f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    EXPECT_THROW(OpenGrwb(path_), SnapshotCorruptError);
    EXPECT_THROW(InspectGraphBinary(path_), SnapshotCorruptError);
  }
}

TEST(FormatTest, SaveLeavesNoTempLitterOnSuccess) {
  // The crash-safe writer stages through <path>.tmp.<pid>; a successful
  // save must leave exactly the destination behind.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "grw_format_litter";
  fs::create_directories(dir);
  const std::string path = (dir / "snap.grwb").string();
  SaveGraphBinary(KarateClub(), path);
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "snap.grwb");
  }
  EXPECT_EQ(entries, 1u);
  // Overwrite in place: readers of the old inode are unaffected and
  // still no litter appears.
  const Graph old_mapping = OpenGrwb(path);
  SaveGraphBinary(Complete(6), path);
  EXPECT_EQ(old_mapping.Summary(), KarateClub().Summary());
  EXPECT_EQ(OpenGrwb(path).Summary(), Complete(6).Summary());
  entries = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(FormatTest, AbandonedTempFileIsNotAValidSnapshot) {
  // Simulate a crash's leftovers: a bare temp file (never renamed) at a
  // tmp-suffixed name. Nothing may load it as the destination, and the
  // destination itself must simply not exist.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "grw_format_abandoned";
  fs::create_directories(dir);
  const std::string path = (dir / "snap.grwb").string();
  const std::string tmp = path + ".tmp.12345";
  // A truncated prefix of a real snapshot, as an interrupted write
  // would leave: save elsewhere, copy half the bytes.
  const std::string donor = (dir / "donor.grwb").string();
  SaveGraphBinary(KarateClub(), donor);
  const auto donor_size = fs::file_size(donor);
  fs::copy_file(donor, tmp);
  fs::resize_file(tmp, donor_size / 2);

  EXPECT_FALSE(fs::exists(path));
  EXPECT_THROW(OpenGrwb(path), std::exception);
  EXPECT_THROW(OpenGrwb(tmp), SnapshotCorruptError);
  fs::remove_all(dir);
}

TEST(FormatTest, LoadGraphAutoDetectsBothFormats) {
  Rng rng(3);
  const Graph g = LargestConnectedComponent(ErdosRenyi(200, 600, rng));
  const std::string text = TempPath("grw_format_auto.edges");
  const std::string bin = TempPath("grw_format_auto.grwb");
  SaveEdgeList(g, text);
  SaveGraphBinary(g, bin);
  OpenOptions options;
  options.largest_cc = false;
  const Graph from_text = GraphSource::Open(text, options).graph();
  const Graph from_bin = GraphSource::Open(bin, options).graph();
  EXPECT_EQ(from_text.Summary(), g.Summary());
  EXPECT_EQ(from_bin.Summary(), g.Summary());
  ExpectIdenticalCsr(from_text, from_bin);
  std::filesystem::remove(text);
  std::filesystem::remove(bin);
}

TEST(RelabelByDegreeTest, ProducesDegreeDescendingOrder) {
  Rng rng(9);
  const Graph g = LargestConnectedComponent(BarabasiAlbert(800, 3, rng));
  const Graph r = RelabelByDegree(g);
  ASSERT_EQ(r.NumNodes(), g.NumNodes());
  ASSERT_EQ(r.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v + 1 < r.NumNodes(); ++v) {
    EXPECT_GE(r.Degree(v), r.Degree(v + 1));
  }
  EXPECT_EQ(r.MaxDegree(), g.MaxDegree());
  EXPECT_EQ(r.WedgeCount(), g.WedgeCount());
  EXPECT_TRUE(r.IsConnected());
}

TEST(RelabelByDegreeTest, GraphletCountsAreInvariant) {
  // Graphlet statistics are label-invariant; the exact counter must agree
  // before and after relabeling.
  Rng rng(13);
  const Graph g = LargestConnectedComponent(HolmeKim(300, 4, 0.5, rng));
  const Graph r = RelabelByDegree(g);
  for (int k : {3, 4}) {
    const auto counts_g = ExactGraphletCounts(g, k);
    const auto counts_r = ExactGraphletCounts(r, k);
    ASSERT_EQ(counts_g.size(), counts_r.size());
    for (size_t i = 0; i < counts_g.size(); ++i) {
      EXPECT_EQ(counts_g[i], counts_r[i]) << "k=" << k << " type " << i;
    }
  }
}

TEST(RelabelByDegreeTest, RoundTripsThroughSnapshot) {
  Rng rng(17);
  const Graph g = LargestConnectedComponent(HolmeKim(250, 3, 0.4, rng));
  const Graph r = RelabelByDegree(g);
  const std::string path = TempPath("grw_format_relabel.grwb");
  SaveGraphBinary(r, path, kGrwbFlagDegreeRelabeled);
  const Graph loaded = OpenGrwb(path, /*verify=*/true);
  ExpectIdenticalCsr(r, loaded);
  EXPECT_TRUE(InspectGraphBinary(path).DegreeRelabeled());
  std::filesystem::remove(path);
}

TEST(ChecksumTest, KnownVectors) {
  // The published FNV-1a-64 test vectors.
  const struct {
    const char* text;
    uint64_t hash;
  } kVectors[] = {{"", 0xcbf29ce484222325ull},
                  {"a", 0xaf63dc4c8601ec8cull},
                  {"foobar", 0x85944171f73967e8ull}};
  for (const auto& v : kVectors) {
    const size_t n = std::strlen(v.text);
    EXPECT_EQ(snapshot::Fnv1a(v.text, n), v.hash) << '"' << v.text << '"';
    EXPECT_EQ(snapshot::Fnv1aBytewise(v.text, n), v.hash)
        << '"' << v.text << '"';
  }
}

TEST(ChecksumTest, KernelMatchesBytewise) {
  if (snapshot::Fnv1aKernelActive()) {
    std::printf("[ checksum ] Fnv1a path: bit-sliced kernel for inputs of "
                ">= %zu bytes\n",
                snapshot::kFnv1aKernelMinBytes);
  } else {
    std::printf("[ checksum ] Fnv1a path: byte loop only (no kernel on "
                "this CPU)\n");
  }
  // Every length up to four chunks and a tail, at every start offset in a
  // cache line, over all-zero, all-0xFF and random bytes in rotation,
  // continuing from the offset basis or a random seed.
  constexpr size_t kMaxLength = 2100;
  constexpr size_t kOffsets = 64;
  Rng rng(48);
  std::vector<unsigned char> random(kMaxLength + kOffsets);
  for (unsigned char& b : random) b = static_cast<unsigned char>(rng());
  const std::vector<unsigned char> zeros(random.size(), 0x00);
  const std::vector<unsigned char> ones(random.size(), 0xFF);
  const std::vector<unsigned char>* patterns[] = {&zeros, &ones, &random};
  const uint64_t seeds[] = {snapshot::kFnvOffsetBasis, rng(), rng(), 0,
                            ~uint64_t{0}};
  size_t cases = 0;
  for (size_t length = 0; length <= kMaxLength; ++length) {
    for (size_t offset = 0; offset < kOffsets; ++offset, ++cases) {
      const unsigned char* data = patterns[cases % 3]->data() + offset;
      const uint64_t seed = seeds[cases % std::size(seeds)];
      ASSERT_EQ(snapshot::Fnv1a(data, length, seed),
                snapshot::Fnv1aBytewise(data, length, seed))
          << "length " << length << " offset " << offset << " pattern "
          << cases % 3 << " seed " << seed;
    }
  }
  // One buffer far past the chunk sizes, at an odd start.
  std::vector<unsigned char> big((5u << 20) + 7);
  for (unsigned char& b : big) b = static_cast<unsigned char>(rng());
  const uint64_t seed = rng();
  EXPECT_EQ(snapshot::Fnv1a(big.data() + 3, big.size() - 3, seed),
            snapshot::Fnv1aBytewise(big.data() + 3, big.size() - 3, seed));
}

}  // namespace
}  // namespace grw
