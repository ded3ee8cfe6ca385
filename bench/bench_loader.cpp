// Loader micro-bench: text edge-list parse vs `.grwb` binary snapshot load.
//
// The paper's workloads start with "load a SNAP-scale graph"; with the
// PR 2 engine stopping runs after a few hundred thousand steps, re-parsing
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
// Flags:
//   --n N              Holme-Kim nodes (default 250000 -> ~1.25M edges)
//   --param M          Holme-Kim edges-per-node (default 5)
//   --dir PATH         scratch directory (default: system temp)
//   --runs R           best-of-R timing for the binary paths (default 3)
//   --check-speedup X  exit 1 unless text / (mmap+touch) >= X  (CI smoke)
//   --keep             keep the generated files
//   --csv PATH         mirror the table to CSV
//   --json PATH        machine-readable results (BENCH_*.json format)
//
// Used as a Release-mode CI smoke test with --check-speedup 5, which also
// exercises the mmap path under optimizations.

#include <cstdint>
#include <cstdio>
#include <filesystem>
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
  const double check_speedup = flags.GetDouble("check-speedup", 0.0);

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
  table.Print();
  grw::bench::MaybeWriteCsv(flags, table);
  grw::bench::MaybeWriteJson(
      flags, "loader", g.Summary(),
      {{"text_parse_s", text_s, "s"},
       {"grwb_lazy_s", lazy_s, "s"},
       {"grwb_touch_s", touch_s, "s"},
       {"grwb_checksum_s", verify_s, "s"},
       {"touch_speedup_vs_text", text_s / touch_s, "x"}});

  if (!flags.GetBool("keep")) {
    std::error_code ec;
    fs::remove(text_path, ec);
    fs::remove(bin_path, ec);
  }

  if (check_speedup > 0.0) {
    const double speedup = text_s / touch_s;
    if (speedup < check_speedup) {
      std::fprintf(stderr,
                   "FAIL: binary load speedup %.1fx below required %.1fx\n",
                   speedup, check_speedup);
      return 1;
    }
    std::printf("OK: binary (mmap+touch) %.1fx faster than text parse "
                "(required >= %.1fx)\n",
                speedup, check_speedup);
  }
  return 0;
}
