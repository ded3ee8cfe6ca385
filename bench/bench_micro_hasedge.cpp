// HasEdge micro-bench + end-to-end G(d) walk speedup gate.
//
// Part 1 — ns/query across degree regimes, binary-search CSR lookup vs
// the AdjacencyIndex path (hub bitsets + neighbor signatures + hybrid
// galloping search), on a >= 1M-edge Holme-Kim graph:
//
//   hub-hub      both endpoints have dense bitset rows -> one bit test
//   hub-leaf     the degree-oriented probe resolves against the hub row
//   leaf-leaf    signature filter + short-list scan (no bitset involved)
//   miss-heavy   uniform random pairs, ~all non-edges: the signature's
//                home turf (the sample window and G(d) enumeration are
//                dominated by exactly this shape of query)
//   edge-present degree-weighted existing edges: worst case for the
//                signature (always passes), best for hub rows
//
// Part 2 — SRW3/SRW4 neighbor-enumeration throughput (steps/s) over one
// recorded walk trajectory, three implementations:
//
//   reference    PR 3 path: per-step vector allocations + adjacency-
//                probing BFS per candidate, binary-search HasEdge
//   scratch      this PR's allocation-free incremental enumerator,
//                binary-search HasEdge
//   scratch+idx  same, with the AdjacencyIndex attached
//
// Replaying one fixed trajectory keeps the three measurements on identical
// work; enumeration dominates an SRW step, so steps/s here is the
// end-to-end walk rate (bench_micro_walks has the full-walk variant).
//
// Flags:
//   --n N                  Holme-Kim nodes (default 250000 -> ~1.25M edges)
//   --param M              Holme-Kim edges per node (default 5)
//   --queries Q            queries per regime (default 2000000)
//   --srw3-steps N         trajectory length for d=3 (default 2000)
//   --srw4-steps N         trajectory length for d=4 (default 200)
//   --runs R               best-of-R timing (default 3)
//   --check-speedup X      exit 1 unless indexed speedup >= X on BOTH the
//                          miss-heavy and hub-hub regimes AND >= 1.0x on
//                          EVERY regime (the index must never lose) (CI)
//   --check-walk-speedup Y exit 1 unless scratch+idx/reference >= Y for
//                          BOTH SRW3 and SRW4 (CI gate)
//   --csv PATH             mirror of the Part 1 (HasEdge regimes) table
//   --json PATH            machine-readable mirror of ALL parts (the
//                          BENCH_HASEDGE.json trajectory format)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/timer.h"
#include "walk/subgraph_walk.h"

namespace {

using grw::Graph;
using grw::VertexId;

struct QuerySet {
  std::string name;
  std::vector<VertexId> u;
  std::vector<VertexId> v;
};

template <typename Fn>
double BestOfSeconds(int runs, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    grw::WallTimer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

// Times one HasEdge pass over a query set; returns {ns/query, hit count}.
template <typename Probe>
std::pair<double, uint64_t> TimeQueries(const QuerySet& q, int runs,
                                        Probe&& probe) {
  uint64_t hits = 0;
  const double seconds = BestOfSeconds(runs, [&] {
    uint64_t h = 0;
    for (size_t i = 0; i < q.u.size(); ++i) h += probe(q.u[i], q.v[i]);
    hits = h;
  });
  return {seconds / static_cast<double>(q.u.size()) * 1e9, hits};
}

std::vector<VertexId> SampleFrom(const std::vector<VertexId>& pool,
                                 size_t count, grw::Rng& rng) {
  std::vector<VertexId> out(count);
  for (size_t i = 0; i < count; ++i) out[i] = pool[rng.UniformInt(pool.size())];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const int64_t n_raw = flags.GetInt("n", 250000);
  if (n_raw < 100) {
    // The walk section needs a graph SubgraphWalk d=4 can move on, and
    // the samplers need edges to draw; anything this small is not a
    // meaningful measurement anyway.
    std::fprintf(stderr, "bench_micro_hasedge: --n must be >= 100\n");
    return 2;
  }
  const auto n = static_cast<VertexId>(n_raw);
  const auto param = flags.GetUInt32("param", 5);
  const size_t queries =
      flags.GetSize("queries", 2000000);
  const int runs = flags.GetInt32("runs", 3);
  const auto linear_cutoff =
      flags.GetUInt32("linear-cutoff", 0);
  const double check_speedup = flags.GetDouble("check-speedup", 0.0);
  const double check_walk = flags.GetDouble("check-walk-speedup", 0.0);

  grw::Rng gen_rng(7);
  grw::WallTimer gen_timer;
  const Graph plain = grw::HolmeKim(n, param, 0.3, gen_rng);
  Graph indexed = plain;
  grw::WallTimer index_timer;
  grw::AdjacencyIndexOptions index_options;
  if (linear_cutoff > 0) index_options.linear_cutoff = linear_cutoff;
  indexed.BuildAdjacencyIndex(index_options);
  const double index_s = index_timer.Seconds();
  const grw::AdjacencyIndex& index = *indexed.adjacency_index();
  std::fprintf(stderr,
               "[hasedge] %s generated in %s; index: %u hubs (deg >= %u), "
               "%.1f MiB bitsets + %.1f MiB signatures, built in %s\n",
               plain.Summary().c_str(),
               grw::Table::Duration(gen_timer.Seconds()).c_str(),
               index.num_hubs(), index.hub_threshold(),
               static_cast<double>(index.bitset_bytes()) / (1 << 20),
               static_cast<double>(index.metadata_bytes()) / (1 << 20),
               grw::Table::Duration(index_s).c_str());

  // ---- Part 1: query regimes -------------------------------------------
  std::vector<VertexId> hubs;
  std::vector<VertexId> leaves;
  for (VertexId v = 0; v < plain.NumNodes(); ++v) {
    (index.IsHub(v) ? hubs : leaves).push_back(v);
  }
  if (hubs.empty()) hubs = leaves;    // degenerate flat graph: keep running
  if (leaves.empty()) leaves = hubs;  // (and the all-hubs mirror image)

  grw::Rng qrng(99);
  std::vector<QuerySet> sets;
  sets.push_back({"hub-hub", SampleFrom(hubs, queries, qrng),
                  SampleFrom(hubs, queries, qrng)});
  sets.push_back({"hub-leaf", SampleFrom(hubs, queries, qrng),
                  SampleFrom(leaves, queries, qrng)});
  sets.push_back({"leaf-leaf", SampleFrom(leaves, queries, qrng),
                  SampleFrom(leaves, queries, qrng)});
  {
    QuerySet miss;
    miss.name = "miss-heavy";
    miss.u.resize(queries);
    miss.v.resize(queries);
    for (size_t i = 0; i < queries; ++i) {
      miss.u[i] = static_cast<VertexId>(qrng.UniformInt(plain.NumNodes()));
      miss.v[i] = static_cast<VertexId>(qrng.UniformInt(plain.NumNodes()));
    }
    sets.push_back(std::move(miss));
  }
  {
    // Existing edges, degree-weighted: a uniform position in the neighbor
    // array belongs to v with probability deg(v)/2m.
    QuerySet present;
    present.name = "edge-present";
    present.u.resize(queries);
    present.v.resize(queries);
    const auto offsets = plain.RawOffsets();
    const auto neighbors = plain.RawNeighbors();
    for (size_t i = 0; i < queries; ++i) {
      const uint64_t pos = qrng.UniformInt(neighbors.size());
      const auto it =
          std::upper_bound(offsets.begin(), offsets.end(), pos) - 1;
      present.u[i] = static_cast<VertexId>(it - offsets.begin());
      present.v[i] = neighbors[pos];
    }
    sets.push_back(std::move(present));
  }

  grw::Table table("HasEdge micro bench: " + plain.Summary() + ", " +
                   std::to_string(queries) + " queries/regime, best of " +
                   std::to_string(runs));
  table.SetHeader({"regime", "binary ns/q", "indexed ns/q", "speedup",
                   "hit rate"});
  std::vector<grw::bench::JsonMetric> metrics;
  double miss_speedup = 0.0;
  double hub_speedup = 0.0;
  double min_speedup = 1e300;
  std::string min_regime;
  for (const QuerySet& q : sets) {
    const auto [binary_ns, binary_hits] =
        TimeQueries(q, runs, [&](VertexId a, VertexId b) {
          return plain.HasEdge(a, b) ? 1u : 0u;
        });
    const auto [indexed_ns, indexed_hits] =
        TimeQueries(q, runs, [&](VertexId a, VertexId b) {
          return indexed.HasEdge(a, b) ? 1u : 0u;
        });
    if (binary_hits != indexed_hits) {
      std::fprintf(stderr, "FAIL: %s: hit counts disagree (%llu vs %llu)\n",
                   q.name.c_str(),
                   static_cast<unsigned long long>(binary_hits),
                   static_cast<unsigned long long>(indexed_hits));
      return 1;
    }
    const double speedup = binary_ns / indexed_ns;
    if (q.name == "miss-heavy") miss_speedup = speedup;
    if (q.name == "hub-hub") hub_speedup = speedup;
    if (speedup < min_speedup) {
      min_speedup = speedup;
      min_regime = q.name;
    }
    table.AddRow({q.name, grw::Table::Num(binary_ns, 1),
                  grw::Table::Num(indexed_ns, 1),
                  grw::Table::Num(speedup, 2) + "x",
                  grw::Table::Num(static_cast<double>(binary_hits) /
                                      static_cast<double>(q.u.size()),
                                  4)});
    const std::string prefix =
        q.name == "edge-present" ? "present" : q.name;
    std::string id = prefix;
    for (char& c : id) {
      if (c == '-') c = '_';
    }
    metrics.push_back({id + "_binary_ns", binary_ns, "ns/query"});
    metrics.push_back({id + "_indexed_ns", indexed_ns, "ns/query"});
    metrics.push_back({id + "_speedup", speedup, "x"});
  }
  table.Print();

  // ---- Part 2: SRW3/SRW4 enumeration throughput ------------------------
  grw::Table walk_table("G(d) walk steps/s (trajectory replay, best of " +
                        std::to_string(runs) + ")");
  walk_table.SetHeader({"walk", "steps", "reference", "scratch",
                        "scratch+index", "speedup vs ref"});
  double srw3_speedup = 0.0;
  double srw4_speedup = 0.0;
  for (const int d : {3, 4}) {
    const auto steps = flags.GetSize(
        "srw" + std::to_string(d) + "-steps", d == 3 ? 2000 : 200);
    // Record one trajectory with the real walk (fixed seed), then replay
    // the enumeration — identical work for all three implementations.
    std::vector<VertexId> trajectory;
    trajectory.reserve(steps * d);
    {
      grw::SubgraphWalk walk(plain, d);
      grw::Rng walk_rng(17 * d);
      walk.Reset(walk_rng);
      for (size_t s = 0; s < steps; ++s) {
        const auto nodes = walk.Nodes();
        trajectory.insert(trajectory.end(), nodes.begin(), nodes.end());
        walk.Step(walk_rng);
      }
    }
    auto replay = [&](auto&& enumerate) {
      return BestOfSeconds(runs, [&] {
        std::vector<VertexId> out;
        for (size_t s = 0; s < steps; ++s) {
          out.clear();
          enumerate(
              std::span<const VertexId>(trajectory.data() + s * d, d), &out);
        }
      });
    };
    const double ref_s = replay([&](auto state, auto* out) {
      grw::EnumerateGdNeighborsReference(plain, state, out);
    });
    grw::GdScratch scratch;
    const double scratch_s = replay([&](auto state, auto* out) {
      grw::EnumerateGdNeighbors(plain, state, out, scratch);
    });
    const double indexed_s = replay([&](auto state, auto* out) {
      grw::EnumerateGdNeighbors(indexed, state, out, scratch);
    });
    const double speedup = ref_s / indexed_s;
    if (d == 3) srw3_speedup = speedup;
    if (d == 4) srw4_speedup = speedup;
    const auto rate = [&](double s) {
      return grw::Table::Num(static_cast<double>(steps) / s, 0);
    };
    walk_table.AddRow({"SRW" + std::to_string(d), std::to_string(steps),
                       rate(ref_s), rate(scratch_s), rate(indexed_s),
                       grw::Table::Num(speedup, 2) + "x"});
    const std::string id = "srw" + std::to_string(d);
    metrics.push_back(
        {id + "_reference_steps_per_s", steps / ref_s, "steps/s"});
    metrics.push_back(
        {id + "_scratch_steps_per_s", steps / scratch_s, "steps/s"});
    metrics.push_back(
        {id + "_indexed_steps_per_s", steps / indexed_s, "steps/s"});
    metrics.push_back({id + "_speedup", speedup, "x"});
  }
  walk_table.Print();

  grw::bench::MaybeWriteCsv(flags, table);
  grw::bench::MaybeWriteJson(flags, "micro_hasedge", plain.Summary(),
                             metrics);

  bool ok = true;
  if (check_speedup > 0.0) {
    if (miss_speedup < check_speedup || hub_speedup < check_speedup) {
      std::fprintf(stderr,
                   "FAIL: indexed HasEdge speedup below %.1fx "
                   "(miss-heavy %.2fx, hub-hub %.2fx)\n",
                   check_speedup, miss_speedup, hub_speedup);
      ok = false;
    } else if (min_speedup < 1.0) {
      // The index must pay for itself on every regime: a single regime
      // below parity means some workload would be better off without it.
      std::fprintf(stderr,
                   "FAIL: indexed HasEdge loses on regime %s "
                   "(%.2fx < 1.0x)\n",
                   min_regime.c_str(), min_speedup);
      ok = false;
    } else {
      std::printf("OK: indexed HasEdge %.1fx (miss-heavy) / %.1fx "
                  "(hub-hub), required >= %.1fx; worst regime %s %.2fx "
                  ">= 1.0x\n",
                  miss_speedup, hub_speedup, check_speedup,
                  min_regime.c_str(), min_speedup);
    }
  }
  if (check_walk > 0.0) {
    if (srw3_speedup < check_walk || srw4_speedup < check_walk) {
      std::fprintf(stderr,
                   "FAIL: SRW steps/s speedup below %.2fx "
                   "(SRW3 %.2fx, SRW4 %.2fx)\n",
                   check_walk, srw3_speedup, srw4_speedup);
      ok = false;
    } else {
      std::printf("OK: SRW3 %.1fx / SRW4 %.1fx steps/s vs reference, "
                  "required >= %.2fx\n",
                  srw3_speedup, srw4_speedup, check_walk);
    }
  }
  return ok ? 0 : 1;
}
