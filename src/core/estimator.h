// The paper's estimator (Algorithm 1) — the core public API of this
// library.
//
// GraphletEstimator runs a random walk on G(d), turns every transition
// into a candidate k-node sample from the last l = k-d+1 states, and
// accumulates the re-weighted indicator of each graphlet type:
//
//   base       weight = prod(interior state degrees) / alpha^k_i
//                       (the 1 / (alpha^k_i * ~pi_e(X)) of Eq. 4/5),
//   CSS        weight = 1 / ~p(X)   (Section 4.1, Eq. 7/8),
//   NB         nominal degrees d' = max(d-1, 1) substituted throughout
//                       (Section 4.2),
//
// yielding asymptotically unbiased concentration estimates
// c^k_i = W_i / sum_j W_j, and count estimates via 2|R(d)| (Eq. 4) when
// |R(d)| is computable (closed forms for d <= 2).
//
// Method naming matches the paper: config {d=1} is SRW1, {d=2,css=true}
// is SRW2CSS, {d=1,css=true,nb=true} is SRW1CSSNB, and {d=k-1} is PSRW.
//
// The whole stack is templated on the graph access policy (graph/access.h)
// with static dispatch: GraphletEstimatorT<Graph> (aliased as
// GraphletEstimator) is the unchanged full-access estimator — bit-identical
// results, no overhead — while GraphletEstimatorT<CrawlAccessT<Base>> reads
// every neighbor list, edge probe and degree through the crawl
// cache/accounting layer and stops early once the access's distinct-query
// budget is exhausted (the budget check compiles away entirely for the
// uncached readers).
//
// Estimators share no mutable state: the graph, catalog, classifier and
// coefficient tables they read are immutable after construction, so
// chains step on any threads without a lock.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/css.h"
#include "core/sample_window.h"
#include "graph/access.h"
#include "graph/graph.h"
#include "graphlet/classifier.h"
#include "util/rng.h"
#include "walk/subgraph_walk.h"
#include "walk/walker.h"

namespace grw {

/// Configuration of one estimator instance.
struct EstimatorConfig {
  /// Graphlet size k, 3 <= k <= kMaxGraphletSize.
  int k = 4;
  /// Walk dimension d, 1 <= d < k. Smaller d is faster and (the paper's
  /// central finding) usually more accurate; d = k-1 reproduces PSRW.
  int d = 2;
  /// Corresponding state sampling (Section 4.1).
  bool css = false;
  /// Non-backtracking walk (Section 4.2).
  bool nb = false;

  /// Paper-style method name, e.g. "SRW2CSS", "SRW1CSSNB".
  std::string Name() const;
};

/// Accumulated estimates of one chain — or, after MergeInto, of several
/// chains combined (the raw accumulators are additive across independent
/// chains, so merged results behave exactly like one longer chain).
struct EstimateResult {
  /// c^k_i per catalog id; sums to 1 when any valid sample was seen.
  std::vector<double> concentrations;
  /// Raw accumulators W_i = sum of per-sample weights, per catalog id.
  std::vector<double> weights;
  /// Number of valid samples classified per type.
  std::vector<uint64_t> samples;
  /// Transitions performed (the paper's sample budget n); summed across
  /// chains after a merge.
  uint64_t steps = 0;
  /// Windows covering exactly k distinct vertices.
  uint64_t valid_samples = 0;
};

/// Recomputes `result.concentrations` from `result.weights`
/// (c_i = W_i / sum_j W_j; all zero when no weight was accumulated).
void FinalizeConcentrations(EstimateResult& result);

/// Accumulates `from` into `into`: weights, samples, steps and valid
/// counts add; concentrations are recomputed from the merged weights.
/// An empty `into` (default-constructed) adopts `from` wholesale.
/// Chains may differ in step counts; they must agree on the number of
/// graphlet types (throws std::invalid_argument otherwise).
void MergeInto(EstimateResult& into, const EstimateResult& from);

/// Merges a set of per-chain results into one combined result.
EstimateResult MergeResults(const std::vector<EstimateResult>& parts);

/// Count estimates C^k_i (Eq. 4) from accumulated weights:
/// C_i = W_i * 2|R(d)| / steps. Works on merged results too (weights and
/// steps are summed consistently). All zero when steps == 0.
std::vector<double> CountEstimatesFromResult(const EstimateResult& result,
                                             uint64_t relationship_edges);

/// The weight of one valid window sample: 1 / CssTable::Eval for css
/// (G(d)-degrees of d >= 3 interior states counted through `scratch`),
/// else the base interior-degree-product / alpha weight of Theorem 2
/// (nominal degrees under NB). `css_table` is CssTable::For(k, d) when
/// css, else unused and may be null; `alpha` is the AlphaTable(k, d)
/// column.
template <class G>
double WindowSampleWeight(const G& g, const EstimatorConfig& config, int l,
                          const CssTable* css_table,
                          const std::vector<int64_t>& alpha,
                          const SampleWindowT<G>& window,
                          const MaskInfo& info, GdScratch& scratch);

/// Random-walk graphlet concentration/count estimator over access policy
/// G. Defined in estimator.cpp for every GRW_ACCESS_FAMILY member
/// (graph/access.h).
template <class G = Graph>
class GraphletEstimatorT {
 public:
  /// The graph must be connected (run LargestConnectedComponent first)
  /// and large enough for the chosen walk (> d nodes). The access object
  /// must outlive the estimator (for a crawl access the caller owns the
  /// cache — one per chain; the engine does this).
  /// Throws std::invalid_argument on bad configuration.
  GraphletEstimatorT(const G& g, const EstimatorConfig& config);

  /// Starts a fresh chain: re-seeds the RNG, picks a random initial state,
  /// walks l-1 transitions to fill the window (Algorithm 1 line 3), and
  /// zeroes all accumulators.
  /// Never budget-gated: a crawl needs at least the seeding transitions.
  void Reset(uint64_t seed);

  /// Advances the chain up to `steps` transitions, accumulating one
  /// candidate sample per transition. With a crawl access policy the loop
  /// returns early once the access reports its distinct-query budget
  /// exhausted; with full access that check does not even compile in.
  /// RunGroup of this chain alone.
  void Run(uint64_t steps);

  /// Runs every chain of `group` as Run(steps) would, interleaved: each
  /// step is three stages, and every chain finishes a stage before any
  /// starts the next, so one chain's cache misses are in flight while
  /// the others compute:
  ///   1. move the walk, and prefetch the new state's offsets rows;
  ///   2. push the new state into the sample window (its edge probes
  ///      read those rows), and prefetch the slot the next move draws
  ///      first (StateWalker::PrefetchNext);
  ///   3. classify, weight and accumulate the sample.
  /// Each chain runs the same operations on its own RNG stream, in its
  /// own order, so its result equals a lone Reset + Run of the same
  /// steps. A chain whose crawl budget runs out leaves the group at the
  /// step where Run would have returned. At most 8 chains interleave; a
  /// larger group runs as consecutive sub-groups of 8. The chains must
  /// share d (std::invalid_argument otherwise) and must not share a
  /// non-Graph access object (the engine gives each chain its own).
  static void RunGroup(std::span<GraphletEstimatorT* const> group,
                       uint64_t steps);

  /// Current estimates. Cheap; can be called repeatedly mid-run (used by
  /// the convergence experiments, paper Figure 6).
  EstimateResult Result() const;

  const EstimatorConfig& config() const { return config_; }
  /// CssTable::For(k, d).alpha(): alpha^k_i per catalog id, one object.
  const std::vector<int64_t>& alpha() const { return table_->alpha(); }
  int NumTypes() const { return num_types_; }
  uint64_t Steps() const { return steps_; }

  /// Convenience: one-shot estimate with a fresh chain.
  static EstimateResult Estimate(const G& g, const EstimatorConfig& config,
                                 uint64_t steps, uint64_t seed);

 private:
  // RunGroup's loop and its three stages, through the concrete walk type
  // W (NodeWalkT, EdgeWalkT or SubgraphWalkT, as d selects).
  template <class W>
  static void StepGroup(std::span<GraphletEstimatorT* const> group,
                        uint64_t steps);
  template <class W>
  void MoveStage();
  template <class W>
  void PushStage();
  void AccumulateStage();
  void Accumulate();
  double SampleWeight(const MaskInfo& info) const;

  const G* g_;
  EstimatorConfig config_;
  int l_;
  int num_types_;
  const GraphletClassifier* classifier_;
  // CssTable::For(k, d): the CSS weight's entries when css, and alpha.
  const CssTable* table_;
  // Whether the weight reads window degrees (base weight, l >= 3): only
  // then does the chain ask its walk for each state's degree.
  bool window_degrees_ = false;
  std::unique_ptr<StateWalker> walker_;
  SampleWindowT<G> window_;
  Rng rng_;
  // Workspace of the CSS weight's d >= 3 state degrees (SampleWeight is
  // const, but the scratch holds no observable state).
  mutable GdScratch gd_scratch_;

  // Inline, like the window's states: a chain's per-step writes stay in
  // its own cache-line-aligned unit (engine.cpp's ChainUnit) and walker.
  std::array<double, kMaxGraphletTypes> weights_ = {};
  std::array<uint64_t, kMaxGraphletTypes> samples_ = {};
  uint64_t steps_ = 0;
  uint64_t valid_samples_ = 0;
};

/// The full-access estimator every pre-policy call site uses.
using GraphletEstimator = GraphletEstimatorT<Graph>;

}  // namespace grw
