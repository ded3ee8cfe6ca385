// Loader micro-bench: text edge-list parse vs `.grwb` binary snapshot
// load, and the snapshot checksum's kernel vs its byte loop.
//
// The paper's workloads start with "load a SNAP-scale graph"; with the
// engine stopping runs after a few hundred thousand steps, re-parsing
// a multi-million-edge text file dominates end-to-end wall-clock. This
// bench generates a >= 1M-edge Holme-Kim graph, writes it in both formats,
// and times four load paths:
//
//   text parse          LoadEdgeList: parse + relabel + sort + CSR build
//   grwb (lazy mmap)    GraphSource::Open: header validation only, pages
//                       fault in as the walk touches them
//   grwb (mmap+touch)   same, then every offsets/neighbors byte is read —
//                       the honest "data is actually in memory" number
//   grwb (checksummed)  the same with OpenOptions::verify
//
// and the data checksum over the loaded CSR bytes two ways, alternating
// run by run: snapshot::DataChecksum (Fnv1a, the bit-sliced kernel where
// the CPU has it) and the same recipe through snapshot::Fnv1aBytewise.
// The two must agree with each other and with the header's checksum.
//
// Flags:
//   --n N              Holme-Kim nodes (default 250000 -> ~1.25M edges)
//   --param M          Holme-Kim edges-per-node (default 5)
//   --dir PATH         scratch directory (default: system temp)
//   --runs R           best-of-R timing for the binary paths (default 3)
//   --check-checksum-speedup X
//                      exit 1 if the checksum kernel is active and less
//                      than X times faster than the byte loop; without
//                      the kernel, report "bytewise only" and pass
//   --keep             keep the generated files
//   --csv PATH         mirror the table to CSV
//   --json PATH        machine-readable results (BENCH_*.json format)
//
// Used as a Release-mode CI smoke test with --check-checksum-speedup 2: a
// regression in the verified open's dominant cost moves that ratio, where
// text parse vs lazy mmap (~1000x) could hardly fail.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>

#include "bench_common.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/source.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

// Forces every page of both CSR arrays into memory; returns a value that
// depends on all of them so the reads cannot be optimized away.
uint64_t TouchAll(const grw::Graph& g) {
  uint64_t acc = 0;
  for (uint64_t o : g.RawOffsets()) acc += o;
  for (grw::VertexId v : g.RawNeighbors()) acc ^= v;
  return acc;
}

template <typename Fn>
double BestOf(int runs, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    grw::WallTimer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const auto n = flags.GetUInt32("n", 250000);
  const auto param = flags.GetUInt32("param", 5);
  const int runs = flags.GetInt32("runs", 3);
  const double check_checksum_speedup =
      flags.GetDouble("check-checksum-speedup", 0.0);

  namespace fs = std::filesystem;
  const fs::path dir = flags.Has("dir")
                           ? fs::path(flags.GetString("dir", ""))
                           : fs::temp_directory_path() / "grw_loader_bench";
  fs::create_directories(dir);
  const std::string text_path = (dir / "loader_bench.edges").string();
  const std::string bin_path = (dir / "loader_bench.grwb").string();

  grw::Rng rng(7);
  grw::WallTimer gen_timer;
  const grw::Graph g = grw::HolmeKim(n, param, 0.3, rng);
  std::fprintf(stderr, "[loader] generated %s in %s\n", g.Summary().c_str(),
               grw::Table::Duration(gen_timer.Seconds()).c_str());

  grw::WallTimer save_text_timer;
  grw::SaveEdgeList(g, text_path);
  const double save_text_s = save_text_timer.Seconds();
  grw::WallTimer save_bin_timer;
  grw::SaveGraphBinary(g, bin_path);
  const double save_bin_s = save_bin_timer.Seconds();

  // Text parse. largest_cc=false isolates parse + relabel + CSR assembly —
  // the part the snapshot eliminates (the snapshot is written post-LCC in
  // the real `grw convert` workflow anyway).
  grw::WallTimer text_timer;
  const grw::Graph from_text = grw::LoadEdgeList(text_path, false);
  const double text_s = text_timer.Seconds();

  const grw::OpenOptions verified{.verify = true};
  const double lazy_s =
      BestOf(runs, [&] { (void)grw::GraphSource::Open(bin_path); });
  uint64_t sink = 0;
  const double touch_s = BestOf(runs, [&] {
    sink ^= TouchAll(grw::GraphSource::Open(bin_path).graph());
  });
  const double verify_s =
      BestOf(runs, [&] { (void)grw::GraphSource::Open(bin_path, verified); });

  const grw::Graph from_bin = grw::GraphSource::Open(bin_path).graph();
  if (from_bin.Summary() != g.Summary() ||
      from_text.Summary() != g.Summary() ||
      TouchAll(from_bin) != TouchAll(g)) {
    std::fprintf(stderr, "FAIL: loaded graphs disagree with the original\n");
    return 1;
  }

  // The checksum two ways over the same in-memory bytes, alternating so
  // that host phases hit both.
  const std::span<const uint64_t> offsets = from_bin.RawOffsets();
  const std::span<const grw::VertexId> neighbors = from_bin.RawNeighbors();
  const bool kernel = grw::snapshot::Fnv1aKernelActive();
  uint64_t fnv1a_sum = 0;
  uint64_t bytewise_sum = 0;
  double fnv1a_s = 1e300;
  double bytewise_s = 1e300;
  for (int r = 0; r < runs; ++r) {
    grw::WallTimer fnv1a_timer;
    fnv1a_sum = grw::snapshot::DataChecksum(offsets, neighbors);
    fnv1a_s = std::min(fnv1a_s, fnv1a_timer.Seconds());
    grw::WallTimer bytewise_timer;
    bytewise_sum = grw::snapshot::Fnv1aBytewise(
        neighbors.data(), neighbors.size_bytes(),
        grw::snapshot::Fnv1aBytewise(offsets.data(), offsets.size_bytes()));
    bytewise_s = std::min(bytewise_s, bytewise_timer.Seconds());
  }
  if (fnv1a_sum != bytewise_sum ||
      fnv1a_sum != grw::InspectGraphBinary(bin_path).data_checksum) {
    std::fprintf(stderr,
                 "FAIL: Fnv1a %016llx, Fnv1aBytewise %016llx and the header "
                 "checksum disagree\n",
                 static_cast<unsigned long long>(fnv1a_sum),
                 static_cast<unsigned long long>(bytewise_sum));
    return 1;
  }
  const double checksum_speedup = bytewise_s / fnv1a_s;

  const double mib = static_cast<double>(fs::file_size(bin_path)) /
                     (1024.0 * 1024.0);
  grw::Table table("loader bench: " + g.Summary() + " (binary " +
                   grw::Table::Num(mib, 1) + " MiB, sink " +
                   std::to_string(sink % 10) + ")");
  table.SetHeader({"path", "seconds", "speedup vs text"});
  auto add = [&](const std::string& name, double s) {
    table.AddRow({name, grw::Table::Num(s, 4),
                  s > 0 ? grw::Table::Num(text_s / s, 1) + "x" : "-"});
  };
  add("write text edge list", save_text_s);
  add("write .grwb snapshot", save_bin_s);
  add("text parse (LoadEdgeList)", text_s);
  add("grwb mmap (lazy)", lazy_s);
  add("grwb mmap + touch all pages", touch_s);
  add("grwb mmap + full checksum", verify_s);
  add(std::string("checksum, Fnv1a (") +
          (kernel ? "kernel" : "bytewise only") + ")",
      fnv1a_s);
  add("checksum, Fnv1aBytewise", bytewise_s);
  table.Print();
  std::printf("checksum: Fnv1a %s, %.2fx the byte loop\n",
              kernel ? "runs the bit-sliced kernel" : "is bytewise only",
              checksum_speedup);
  grw::bench::MaybeWriteCsv(flags, table);
  grw::bench::MaybeWriteJson(
      flags, "loader",
      g.Summary() + (kernel ? " fnv1a=kernel" : " fnv1a=bytewise"),
      {{"text_parse_s", text_s, "s"},
       {"grwb_lazy_s", lazy_s, "s"},
       {"grwb_touch_s", touch_s, "s"},
       {"grwb_checksum_s", verify_s, "s"},
       {"touch_speedup_vs_text", text_s / touch_s, "x"},
       {"fnv1a_s", fnv1a_s, "s"},
       {"fnv1a_bytewise_s", bytewise_s, "s"},
       {"fnv1a_speedup", checksum_speedup, "x"},
       {"fnv1a_kernel", kernel ? 1.0 : 0.0, "bool"}});

  if (!flags.GetBool("keep")) {
    std::error_code ec;
    fs::remove(text_path, ec);
    fs::remove(bin_path, ec);
  }

  if (check_checksum_speedup > 0.0) {
    if (!kernel) {
      std::printf("OK: bytewise only (no checksum kernel on this CPU); "
                  "--check-checksum-speedup %.1f not applied\n",
                  check_checksum_speedup);
    } else if (checksum_speedup < check_checksum_speedup) {
      std::fprintf(stderr,
                   "FAIL: checksum kernel %.2fx the byte loop, below "
                   "required %.1fx\n",
                   checksum_speedup, check_checksum_speedup);
      return 1;
    } else {
      std::printf("OK: checksum kernel %.2fx faster than the byte loop "
                  "(required >= %.1fx)\n",
                  checksum_speedup, check_checksum_speedup);
    }
  }
  return 0;
}
