// Traced runs: per-layer metrics. Every layer is measured from outside,
// by timing calls into its public functions with a span around each call;
// no layer is instrumented from within. Per-layer times are span self
// times. The walk layers are split by replaying one chain of the
// workload's estimator configuration pass by pass; the replay must
// reproduce GraphletEstimatorT<Graph>::Estimate bit for bit, which is
// also what makes the split trustworthy.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <span>

#include "core/alpha.h"
#include "core/batch_means.h"
#include "core/css.h"
#include "graph/adjacency.h"
#include "graphlet/classifier.h"
#include "serve/client.h"
#include "util/rng.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"
#include "workloads.h"

namespace e2e {

namespace {

// Repetitions of each timed replay pass, and of each access-layer
// replay; metrics use their median.
constexpr int kPassReps = 5;
constexpr int kAccessReps = 3;
// The replay under a 50% shard budget runs at a small fraction of
// in-memory speed, so it walks this much shorter a chain.
constexpr uint64_t kBudgetReplayDivisor = 50;
// Timed ShardStore::Acquire calls.
constexpr int kFaultProbes = 64;
constexpr int kHitProbes = 20'000;
// Serve-path probe requests.
constexpr int kServeProbes = 100;

double SelfMedianNs(const Tracer& tr, const std::string& name) {
  return Median(tr.SelfNs(name));
}

// ------------------------------------------------------------ graph.source

void MeasureGraphSource(const Workload& w, const Fixture& f, Tracer& tr,
                        Report& report) {
  const uint64_t trace = tr.NewTrace();
  grw::OpenOptions no_index;
  no_index.build_index = false;
  double index_mib = 0.0;
  for (int r = 0; r < kPassReps; ++r) {
    grw::GraphSource opened;
    {
      Tracer::Scope open(tr, trace, 0, "graph.open");
      opened = w.access == Access::kSharded
                   ? OpenForWorkload(w, f)
                   : grw::GraphSource::Open(f.grwb_path, no_index);
    }
    grw::Graph g = grw::GraphSource::Open(f.grwb_path, no_index).graph();
    {
      Tracer::Scope build(tr, trace, 0, "graph.index_build");
      g.BuildAdjacencyIndex();
    }
    const grw::AdjacencyIndex* index = g.adjacency_index();
    index_mib = static_cast<double>(index->bitset_bytes() +
                                    index->metadata_bytes()) /
                (1024.0 * 1024.0);
  }
  report.Add("graph.open_ms", SelfMedianNs(tr, "graph.open") * 1e-6, "ms");
  report.Add("graph.index_build_ms",
             SelfMedianNs(tr, "graph.index_build") * 1e-6, "ms");
  report.Add("graph.index_mib", index_mib, "MiB");
}

// ------------------------------------------------------------------ engine

grw::EngineOptions PinnedOptions(const grw::serve::EstimateRequest& req) {
  grw::EngineOptions options = AnswerOptions(req);
  // A progress callback would otherwise switch a one-round run to the
  // default round slicing; pin what the untraced run uses.
  if (options.round_steps == 0) options.round_steps = options.max_steps;
  return options;
}

// Answers run twice, untraced and traced (rounds recorded as children of
// the run span from the progress callback), and must agree bit for bit.
grw::EngineResult MeasureAnswers(const Workload& w,
                                 const grw::GraphSource& source,
                                 const std::vector<std::string>& lines,
                                 double seconds, Tracer& tr,
                                 Report& report) {
  std::vector<double> plain_cpu;
  std::vector<double> traced_cpu;
  grw::EngineResult last;
  int rounds = 0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < 3 || NowNs() - start < seconds * 1e9; ++i) {
    const grw::serve::EstimateRequest req =
        ParseEstimate(lines[i % lines.size()]);
    grw::EngineResult plain;
    const auto run_plain = [&] {
      const double c0 = ProcessCpuSeconds();
      plain = RunEngine(source, req, PinnedOptions(req));
      plain_cpu.push_back(ProcessCpuSeconds() - c0);
    };
    const auto run_traced = [&] {
      const uint64_t trace = tr.NewTrace();
      const uint64_t run_id = tr.ReserveId();
      grw::EngineOptions options = PinnedOptions(req);
      const int64_t run_start = NowNs();
      int64_t round_start = run_start;
      options.on_progress = [&](const grw::EngineProgress&) {
        const int64_t now = NowNs();
        tr.Record(trace, tr.ReserveId(), run_id, "engine.round",
                  round_start, now);
        round_start = now;
      };
      const double c0 = ProcessCpuSeconds();
      last = RunEngine(source, req, std::move(options));
      traced_cpu.push_back(ProcessCpuSeconds() - c0);
      tr.Record(trace, run_id, 0, "engine.run", run_start, NowNs());
    };
    // Alternate which goes first, so warm caches favour neither.
    if (i % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    report.Check(SameEstimate(plain.merged, last.merged),
                 w.name + ": traced and untraced answers differ");
    rounds += last.rounds;
  }
  const std::vector<double> round_ns = tr.SelfNs("engine.round");
  report.Add("engine.rounds",
             static_cast<double>(rounds) /
                 static_cast<double>(plain_cpu.size()),
             "count");
  report.Add("engine.round_ms_p50", Median(round_ns) * 1e-6, "ms");
  report.Add("engine.round_ms_max",
             *std::max_element(round_ns.begin(), round_ns.end()) * 1e-6,
             "ms");
  report.Add("engine.answer_wall_ms",
             Median(tr.DurationNs("engine.run")) * 1e-6, "ms");
  // Sums, not medians: serve-mix alternates two request classes whose
  // costs differ by 10x, so its median sits on a class boundary.
  report.Add("trace.overhead",
             std::accumulate(traced_cpu.begin(), traced_cpu.end(), 0.0) /
                 std::accumulate(plain_cpu.begin(), plain_cpu.end(), 0.0),
             "ratio");
  return last;
}

// The engine's per-round bookkeeping — merge in chain order, one batch
// per chain, the convergence metric — replayed on a finished answer's
// per-chain results.
void MeasureMerge(const grw::EngineResult& answer, Tracer& tr,
                  Report& report) {
  const uint64_t trace = tr.NewTrace();
  const int rounds = std::max(answer.rounds, 1);
  uint64_t replayed = 0;
  {
    Tracer::Scope span(tr, trace, 0, "engine.merge_replay");
    const int64_t start = NowNs();
    while (replayed == 0 || NowNs() - start < 20'000'000) {
      grw::BatchMeansAccumulator batches;
      std::vector<std::vector<double>> prev(answer.per_chain.size());
      for (int r = 0; r < rounds; ++r) {
        grw::EstimateResult merged;
        for (const grw::EstimateResult& chain : answer.per_chain) {
          grw::MergeInto(merged, chain);
        }
        for (size_t c = 0; c < answer.per_chain.size(); ++c) {
          batches.AddBatch(grw::BatchFromCumulativeWeights(
              answer.per_chain[c].weights, prev[c]));
        }
        batches.MaxRelativeError(merged.concentrations, 1e-3);
        ++replayed;
      }
    }
  }
  report.Add("engine.merge_us_per_round",
             SelfMedianNs(tr, "engine.merge_replay") * 1e-3 /
                 static_cast<double>(replayed),
             "us");
}

// Two fixed rounds at kThreads threads, then every chain alone on one
// thread (chain_offset selects its RNG stream, so each is the same chain
// as in the parallel run — and their merge must equal it).
void MeasureScaling(const Workload& w, const grw::GraphSource& source,
                    const std::string& line, Tracer& tr, Report& report) {
  const uint64_t trace = tr.NewTrace();
  const grw::serve::EstimateRequest req = ParseEstimate(line);
  grw::EngineOptions options = PinnedOptions(req);
  options.target_nrmse = 0.0;
  options.max_steps = 2 * options.round_steps;
  grw::EngineResult parallel;
  {
    Tracer::Scope span(tr, trace, 0, "engine.parallel_rounds");
    parallel = RunEngine(source, req, options);
  }
  std::vector<double> chain_cpu;
  std::vector<grw::EstimateResult> chains;
  for (int c = 0; c < options.chains; ++c) {
    grw::EngineOptions one = options;
    one.chains = 1;
    one.chain_offset = static_cast<uint64_t>(c);
    one.threads = 1;
    Tracer::Scope span(tr, trace, 0, "engine.one_chain");
    const double c0 = ThreadCpuSeconds();  // threads=1 runs inline
    chains.push_back(RunEngine(source, req, one).merged);
    chain_cpu.push_back(ThreadCpuSeconds() - c0);
  }
  report.Check(SameEstimate(grw::MergeResults(chains), parallel.merged),
               w.name + ": one-chain runs do not merge to the parallel run");
  const double serial_ns = std::accumulate(chain_cpu.begin(),
                                           chain_cpu.end(), 0.0) * 1e9;
  const double parallel_ns = tr.SelfNs("engine.parallel_rounds").back();
  report.Add("engine.scaling_eff",
             serial_ns / parallel_ns / static_cast<double>(kThreads),
             "ratio");
  report.Add("engine.chain_imbalance",
             *std::max_element(chain_cpu.begin(), chain_cpu.end()) /
                 (serial_ns * 1e-9 / static_cast<double>(chain_cpu.size())),
             "ratio");
}

// ------------------------------------------------- walk / window / weight

std::unique_ptr<grw::StateWalker> MakeWalker(const grw::Graph& g,
                                             const grw::EstimatorConfig& c) {
  if (c.d == 1) return std::make_unique<grw::NodeWalkT<grw::Graph>>(g, c.nb);
  if (c.d == 2) return std::make_unique<grw::EdgeWalkT<grw::Graph>>(g, c.nb);
  return std::make_unique<grw::SubgraphWalkT<grw::Graph>>(g, c.d, c.nb);
}

// One recorded chain: the visited states (d ids each) and the G(d)
// degree of every state the walk left.
struct Trajectory {
  int d = 0;
  std::vector<grw::VertexId> nodes;
  std::vector<uint64_t> degrees;
  size_t States() const { return nodes.size() / static_cast<size_t>(d); }
  std::span<const grw::VertexId> State(size_t i) const {
    return {nodes.data() + i * d, static_cast<size_t>(d)};
  }
};

// Walk pass: exactly the walker calls Estimate() makes (Reset, then
// StateDegree + Step per transition), recording states.
Trajectory Walk(const grw::Graph& g, const grw::EstimatorConfig& cfg,
                uint64_t steps, uint64_t seed) {
  const int l = cfg.k - cfg.d + 1;
  Trajectory t;
  t.d = cfg.d;
  const uint64_t transitions = static_cast<uint64_t>(l - 1) + steps;
  t.nodes.reserve((transitions + 1) * cfg.d);
  t.degrees.reserve(transitions);
  std::unique_ptr<grw::StateWalker> walker = MakeWalker(g, cfg);
  grw::Rng rng(seed);
  walker->Reset(rng);
  const auto record = [&] {
    const std::span<const grw::VertexId> s = walker->Nodes();
    t.nodes.insert(t.nodes.end(), s.begin(), s.end());
  };
  record();
  for (uint64_t i = 0; i < transitions; ++i) {
    t.degrees.push_back(walker->StateDegree());
    walker->Step(rng);
    record();
  }
  return t;
}

// Window passes over a recorded trajectory, in increasing depth: push
// only, + classify, + weight and accumulate (which is the estimator).
enum class Depth { kPush, kClassify, kWeigh };

// Chunks the window passes are timed in: each chunk runs all three
// depths back to back, so the differences between depths are taken over
// a few milliseconds in which the machine's speed holds still.
constexpr size_t kChunks = 10;

struct WindowPass {
  grw::EstimateResult result;
  uint64_t valid = 0;
};

// The estimator's per-window work, driven from a recorded trajectory.
class WindowReplay {
 public:
  WindowReplay(const grw::Graph& g, const grw::EstimatorConfig& cfg)
      : g_(g),
        cfg_(cfg),
        l_(cfg.k - cfg.d + 1),
        classifier_(grw::GraphletClassifier::ForSize(cfg.k)),
        alpha_(grw::AlphaTable(cfg.k, cfg.d)),
        css_(cfg.css && cfg.d <= 2 ? &grw::CssTable::For(cfg.k, cfg.d)
                                   : nullptr),
        types_(grw::GraphletCatalog::ForSize(cfg.k).NumTypes()) {}

  // Replays transitions into states [begin, end), begin >= l, after
  // refilling the window with the l states before `begin`. [l, States())
  // is exactly what Estimate() does after Reset().
  WindowPass Run(const Trajectory& t, Depth depth, size_t begin,
                 size_t end) const {
    grw::GdScratch scratch;
    grw::SampleWindowT<grw::Graph> window(g_, cfg_.k, l_);
    WindowPass out;
    out.result.weights.assign(types_, 0.0);
    out.result.samples.assign(types_, 0);
    const size_t first = begin - static_cast<size_t>(l_);
    for (size_t i = first; i < end; ++i) {
      if (i > first) window.SetNewestDegree(t.degrees[i - 1]);
      window.Push(t.State(i), 0);
      if (i < begin) continue;  // refilling the window
      if (!window.Valid()) continue;
      ++out.valid;
      if (depth == Depth::kPush) continue;
      const grw::MaskInfo& info = classifier_.Info(window.Mask());
      ++out.result.samples[info.type];
      if (depth == Depth::kClassify) continue;
      out.result.weights[info.type] += grw::WindowSampleWeight(
          g_, cfg_, l_, css_, alpha_, window, info, scratch);
    }
    out.result.steps = end - begin;
    out.result.valid_samples = out.valid;
    grw::FinalizeConcentrations(out.result);
    return out;
  }

 private:
  const grw::Graph& g_;
  const grw::EstimatorConfig cfg_;
  const int l_;
  const grw::GraphletClassifier& classifier_;
  const std::vector<int64_t> alpha_;
  const grw::CssTable* const css_;
  const int types_;
};

// The vertex pairs the window probes with HasEdge: each vertex entering
// the union is tested against every vertex already in it (after the
// oldest state's vertices left).
std::vector<std::pair<grw::VertexId, grw::VertexId>> ProbePairs(
    const grw::EstimatorConfig& cfg, const Trajectory& t) {
  const int l = cfg.k - cfg.d + 1;
  std::vector<std::pair<grw::VertexId, grw::VertexId>> pairs;
  std::vector<grw::VertexId> union_nodes;  // first-appearance order
  for (size_t i = 0; i < t.States(); ++i) {
    if (i >= static_cast<size_t>(l)) {
      // The oldest state leaves: keep the vertices a newer state holds.
      std::erase_if(union_nodes, [&](grw::VertexId v) {
        for (size_t j = i - l + 1; j < i; ++j) {
          for (const grw::VertexId u : t.State(j)) {
            if (u == v) return false;
          }
        }
        return true;
      });
    }
    for (const grw::VertexId v : t.State(i)) {
      if (std::find(union_nodes.begin(), union_nodes.end(), v) !=
          union_nodes.end()) {
        continue;
      }
      if (i >= static_cast<size_t>(l)) {
        for (const grw::VertexId u : union_nodes) pairs.emplace_back(u, v);
      }
      union_nodes.push_back(v);
    }
  }
  return pairs;
}

// The replayed chain's untraced estimate and its one-pass time, the
// baseline the access-layer replays are compared against.
struct ChainBaseline {
  grw::EstimateResult estimate;
  double one_pass_ns = 0.0;
};

ChainBaseline MeasureChainLayers(const Workload& w, const grw::Graph& g,
                                 uint64_t seed, Tracer& tr, Report& report) {
  const grw::EstimatorConfig cfg = ParseEstimate(w.request).config;
  const uint64_t n = w.replay_steps;
  const double steps = static_cast<double>(n);
  const uint64_t window_reps = std::max<uint64_t>(1, 1'000'000 / n);
  const double window_steps = steps * static_cast<double>(window_reps);
  const uint64_t trace = tr.NewTrace();
  const size_t l = static_cast<size_t>(cfg.k - cfg.d + 1);
  const WindowReplay replayer(g, cfg);
  Trajectory t;
  grw::EstimateResult reference;
  uint64_t probe_hits = 0;
  std::vector<std::pair<grw::VertexId, grw::VertexId>> pairs =
      ProbePairs(cfg, Walk(g, cfg, std::min<uint64_t>(n, 200'000), seed));
  for (int rep = 0; rep < kPassReps; ++rep) {
    Tracer::Scope replay(tr, trace, 0, "replay");
    {
      Tracer::Scope s(tr, trace, replay.id(), "walk.pass");
      t = Walk(g, cfg, n, seed);
    }
    {
      Tracer::Scope s(tr, trace, replay.id(), "walk.degree_pass");
      grw::GdScratch scratch;
      uint64_t sink = 0;
      for (size_t i = 0; i + 1 < t.States(); ++i) {
        const std::span<const grw::VertexId> s2 = t.State(i);
        sink += cfg.d >= 3 ? grw::SubgraphStateDegree(g, s2, scratch)
                : cfg.d == 2
                    ? uint64_t{g.Degree(s2[0])} + g.Degree(s2[1]) - 2
                    : g.Degree(s2[0]);
      }
      report.Check(sink == std::accumulate(t.degrees.begin(),
                                           t.degrees.end(), uint64_t{0}),
                   w.name + ": G(d) degree replay disagrees with the walk");
    }
    // The window passes are cheap next to a G(d) walk: each chunk's pass
    // repeats window_reps times so its span lasts long enough to time.
    // Every other chunk runs the depths in reverse, so a drift in machine
    // speed does not bias the differences between them.
    for (size_t c = 0; c < kChunks; ++c) {
      const size_t begin = l + c * n / kChunks;
      const size_t end = l + (c + 1) * n / kChunks;
      std::vector<std::pair<const char*, Depth>> passes = {
          {"window.pass", Depth::kPush},
          {"classify.pass", Depth::kClassify},
          {"weight.pass", Depth::kWeigh}};
      if ((c + rep) % 2 == 1) std::reverse(passes.begin(), passes.end());
      for (const auto& [name, depth] : passes) {
        Tracer::Scope s(tr, trace, replay.id(), name);
        for (uint64_t k = 0; k < window_reps; ++k) {
          replayer.Run(t, depth, begin, end);
        }
      }
    }
    {
      Tracer::Scope s(tr, trace, replay.id(), "adjacency.probe_pass");
      probe_hits = 0;
      for (const auto& [u, v] : pairs) probe_hits += g.HasEdge(u, v) ? 1 : 0;
    }
    {
      Tracer::Scope s(tr, trace, replay.id(), "estimate.one_pass");
      reference = grw::GraphletEstimatorT<grw::Graph>::Estimate(g, cfg, n,
                                                                 seed);
    }
  }
  const WindowPass weighed = replayer.Run(t, Depth::kWeigh, l, t.States());
  report.Check(SameEstimate(weighed.result, reference),
               w.name + ": the layer replay does not reproduce Estimate()");

  // Per-repetition totals of the chunked window passes, and per-chunk
  // differences between adjacent depths (paired within the chunk).
  const auto per_rep = [&](const char* name) {
    const std::vector<double> chunks = tr.SelfNs(name);
    std::vector<double> totals(kPassReps, 0.0);
    for (size_t i = 0; i < chunks.size(); ++i) totals[i / kChunks] += chunks[i];
    return totals;
  };
  const double chunk_valid =
      static_cast<double>(std::max<uint64_t>(weighed.valid, 1)) /
      static_cast<double>(kChunks) * static_cast<double>(window_reps);
  const auto paired = [&](const char* deeper, const char* shallower) {
    const std::vector<double> a = tr.SelfNs(deeper);
    const std::vector<double> b = tr.SelfNs(shallower);
    std::vector<double> diff;
    for (size_t i = 0; i < a.size(); ++i) diff.push_back(a[i] - b[i]);
    return Median(diff) / chunk_valid;
  };
  const double walk_ns = SelfMedianNs(tr, "walk.pass");
  const double estimate_ns = SelfMedianNs(tr, "estimate.one_pass");
  const double pair_count =
      static_cast<double>(std::max<size_t>(pairs.size(), 1));
  report.Add("walk.step_ns", walk_ns / steps, "ns");
  report.Add("walk.degree_ns",
             SelfMedianNs(tr, "walk.degree_pass") / steps, "ns");
  report.Add("walk.state_degree",
             static_cast<double>(std::accumulate(t.degrees.begin(),
                                                 t.degrees.end(),
                                                 uint64_t{0})) /
                 static_cast<double>(t.degrees.size()),
             "count");
  report.Add("window.push_ns",
             Median(per_rep("window.pass")) / window_steps, "ns");
  report.Add("window.valid_ratio", static_cast<double>(weighed.valid) / steps,
             "ratio");
  report.Add("classify.ns_per_sample", paired("classify.pass", "window.pass"),
             "ns");
  report.Add("weight.ns_per_sample", paired("weight.pass", "classify.pass"),
             "ns");
  report.Add("adjacency.probe_ns",
             SelfMedianNs(tr, "adjacency.probe_pass") / pair_count, "ns");
  report.Add("adjacency.probes_per_step",
             pair_count / static_cast<double>(std::min<uint64_t>(n, 200'000)),
             "count");
  report.Add("adjacency.edge_ratio",
             static_cast<double>(probe_hits) / pair_count, "ratio");
  // The walk pass plus the full window pass is the whole estimator: per
  // repetition, against the one-pass Estimate() of the same chain.
  std::vector<double> coverage;
  const std::vector<double> walks = tr.SelfNs("walk.pass");
  const std::vector<double> windows = per_rep("weight.pass");
  const std::vector<double> one_pass = tr.SelfNs("estimate.one_pass");
  for (int r = 0; r < kPassReps; ++r) {
    coverage.push_back(
        (walks[r] + windows[r] / static_cast<double>(window_reps)) /
        one_pass[r]);
  }
  report.Add("trace.coverage", Median(coverage), "ratio");

  return {reference, estimate_ns};
}

// One chain of `steps` transitions through access policy `access`.
template <class Access>
grw::EstimateResult ReplayThrough(const Access& access,
                                  const grw::EstimatorConfig& cfg,
                                  uint64_t steps, uint64_t seed, Tracer& tr,
                                  uint64_t trace, const std::string& span) {
  const Tracer::Scope s(tr, trace, 0, span);
  grw::GraphletEstimatorT<Access> est(access, cfg);
  est.Reset(seed);
  est.Run(steps);
  return est.Result();
}

// The replayed chain again, through the crawl cache and through the shard
// store (unbounded, then with half the shard bytes resident), plus timed
// ShardStore::Acquire faults and hits.
void MeasureAccessLayers(const Workload& w, const Fixture& f,
                         const grw::Graph& g, uint64_t seed,
                         const ChainBaseline& base, Tracer& tr,
                         Report& report) {
  const grw::EstimatorConfig cfg = ParseEstimate(w.request).config;
  const uint64_t n = w.replay_steps;
  const double steps = static_cast<double>(n);
  const uint64_t trace = tr.NewTrace();
  const grw::ShardManifest manifest = grw::LoadShardManifest(f.shards_path);

  grw::CrawlAccess::Options crawl_options;
  crawl_options.cache_entries = 4096;
  grw::CrawlStats cs;
  for (int rep = 0; rep < kAccessReps; ++rep) {
    const grw::CrawlAccess crawl(g, crawl_options);
    report.Check(SameEstimate(ReplayThrough(crawl, cfg, n, seed, tr, trace,
                                            "crawl.replay"),
                              base.estimate),
                 w.name + ": crawl access changed the estimate");
    cs = crawl.stats();
  }
  report.Add("crawl.hit_rate", cs.HitRate(), "ratio");
  report.Add("crawl.fetches_per_step",
             static_cast<double>(cs.fetches) / steps, "count");
  report.Add("crawl.refetch_ratio",
             static_cast<double>(cs.Refetches()) /
                 static_cast<double>(std::max<uint64_t>(cs.fetches, 1)),
             "ratio");
  report.Add("crawl.overhead",
             SelfMedianNs(tr, "crawl.replay") / base.one_pass_ns, "ratio");

  // Unbounded: the gap to in-memory at a 100% budget.
  for (int rep = 0; rep < kAccessReps; ++rep) {
    const grw::ShardStore store(manifest, {});
    const grw::ShardedAccess access(store);
    report.Check(SameEstimate(ReplayThrough(access, cfg, n, seed, tr, trace,
                                            "shards.replay_unbounded"),
                              base.estimate),
                 w.name + ": sharded access changed the estimate");
  }
  report.Add("shards.overhead",
             SelfMedianNs(tr, "shards.replay_unbounded") / base.one_pass_ns,
             "ratio");
  // Half the shard bytes resident: the sharded-half residency regime.
  const uint64_t budget_steps =
      std::max<uint64_t>(n / kBudgetReplayDivisor, 1);
  {
    grw::ShardStore::Options options;
    options.resident_budget_bytes = manifest.TotalShardBytes() / 2;
    const grw::ShardStore store(manifest, options);
    const grw::ShardedAccess access(store);
    report.Check(
        SameEstimate(ReplayThrough(access, cfg, budget_steps, seed, tr, trace,
                                   "shards.replay_half"),
                     grw::GraphletEstimatorT<grw::Graph>::Estimate(
                         g, cfg, budget_steps, seed)),
        w.name + ": a resident budget changed the estimate");
    const grw::ShardStats half = store.stats();
    report.Add("shards.hit_rate", half.HitRate(), "ratio");
    report.Add("shards.evictions_per_kstep",
               static_cast<double>(half.evictions) * 1e3 /
                   static_cast<double>(budget_steps),
               "count");
  }

  // Acquire probes: a one-shard budget makes every switch a fault.
  {
    grw::ShardStore::Options options;
    options.resident_budget_bytes = 1;
    const grw::ShardStore store(manifest, options);
    {
      Tracer::Scope s(tr, trace, 0, "shards.acquire_faults");
      for (int i = 0; i < kFaultProbes; ++i) {
        store.Acquire(static_cast<uint32_t>(i) % store.NumShards());
      }
    }
    {
      Tracer::Scope s(tr, trace, 0, "shards.acquire_hits");
      for (int i = 0; i < kHitProbes; ++i) store.Acquire(0);
    }
    report.Check(store.stats().faults >= static_cast<uint64_t>(kFaultProbes),
                 w.name + ": shard fault probes did not fault");
  }
  report.Add("shards.fault_us",
             SelfMedianNs(tr, "shards.acquire_faults") * 1e-3 / kFaultProbes,
             "us");
  report.Add("shards.hit_ns",
             SelfMedianNs(tr, "shards.acquire_hits") / kHitProbes, "ns");
}

// ------------------------------------------------------------------ serve

// One short request per probe, every serve layer timed separately with
// spans sharing the request's trace id: parse, the direct engine run,
// encode, the scheduler in-process, and a TCP round trip. A PING through
// the scheduler and over TCP isolates the transport.
void MeasureServe(const Workload& w, const Fixture& f, uint64_t seed,
                  Tracer& tr, Report& report) {
  ServeStack stack(f);
  grw::serve::SchedulerOptions scheduler_options;
  scheduler_options.workers = 1;
  grw::serve::ServeScheduler scheduler(&stack.registry(), scheduler_options);
  grw::serve::QueryClient client("127.0.0.1", stack.server().port());
  const grw::GraphSource source = *stack.registry().FindSource("g");
  for (int i = 0; i < kServeProbes; ++i) {
    const std::string line =
        w.probe + " seed=" + std::to_string(AnswerSeed(seed, 5000 + i));
    const uint64_t trace = tr.NewTrace();
    const Tracer::Scope request(tr, trace, 0, "serve.request");
    const auto timed = [&](const char* name, const auto& call) {
      const Tracer::Scope s(tr, trace, request.id(), name);
      return call();
    };
    const grw::serve::EstimateRequest req =
        timed("serve.parse", [&] { return ParseEstimate(line); });
    // The scheduler replays the very walk the direct run just made, on
    // warm caches; alternate which goes first so neither is favoured.
    const auto direct_run = [&] {
      const grw::EngineResult result = timed("serve.engine", [&] {
        return RunEngine(source, req, grw::serve::ToEngineOptions(req));
      });
      return timed("serve.encode", [&] {
        return grw::serve::EstimateResponse(req, result);
      });
    };
    const auto handle = [&] {
      return timed("serve.handle", [&] { return scheduler.HandleLine(line); });
    };
    std::string direct;
    std::string handled;
    if (i % 2 == 0) {
      direct = direct_run();
      handled = handle();
    } else {
      handled = handle();
      direct = direct_run();
    }
    const std::string wire =
        timed("serve.round_trip", [&] { return client.RoundTrip(line); });
    const std::string pong = timed(
        "serve.handle_ping", [&] { return scheduler.HandleLine("PING"); });
    const std::string wire_pong = timed(
        "serve.round_trip_ping", [&] { return client.RoundTrip("PING"); });
    report.Check(WithoutTiming(direct) == WithoutTiming(handled) &&
                     WithoutTiming(direct) == WithoutTiming(wire) &&
                     pong == wire_pong,
                 w.name + ": served answer differs from the direct run");
  }
  report.Add("serve.parse_us", SelfMedianNs(tr, "serve.parse") * 1e-3, "us");
  report.Add("serve.encode_us", SelfMedianNs(tr, "serve.encode") * 1e-3,
             "us");
  report.Add("serve.handle_overhead_us",
             (SelfMedianNs(tr, "serve.handle") -
              SelfMedianNs(tr, "serve.engine")) *
                 1e-3,
             "us");
  report.Add("serve.transport_us",
             (SelfMedianNs(tr, "serve.round_trip_ping") -
              SelfMedianNs(tr, "serve.handle_ping")) *
                 1e-3,
             "us");
}

}  // namespace

void RunTracedWorkload(const Workload& w, const Fixture& f,
                       const RunOptions& opt, Report& report) {
  Tracer tr;
  MeasureGraphSource(w, f, tr, report);

  const grw::GraphSource source = OpenForWorkload(w, f);
  const grw::GraphSource mono = grw::GraphSource::Open(f.grwb_path);
  std::vector<std::string> lines;
  std::string scaling_line;
  if (w.access == Access::kServe) {
    lines = MakeServeMix(opt.seed).lines;
    scaling_line = lines.back();  // a two-chain request
  } else {
    for (uint64_t i = 0; i < 64; ++i) {
      lines.push_back(AnswerLine(w, opt.seed, i));
    }
    scaling_line = lines.front();
  }
  // Warm-up, as in the untraced run.
  RunEngine(source, ParseEstimate(lines.front()),
            PinnedOptions(ParseEstimate(lines.front())));
  const grw::EngineResult answer =
      MeasureAnswers(w, source, lines, opt.seconds / 3.0, tr, report);
  MeasureMerge(answer, tr, report);
  MeasureScaling(w, source, scaling_line, tr, report);

  const uint64_t replay_seed = AnswerSeed(opt.seed, 9000);
  const ChainBaseline base =
      MeasureChainLayers(w, mono.graph(), replay_seed, tr, report);
  MeasureAccessLayers(w, f, mono.graph(), replay_seed, base, tr, report);
  MeasureServe(w, f, opt.seed, tr, report);

  for (const Metric& m : report.metrics()) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!opt.trace_file.empty() && !tr.WriteJsonLines(opt.trace_file)) {
    report.Check(false, "cannot write trace file " + opt.trace_file);
  }
}

}  // namespace e2e
