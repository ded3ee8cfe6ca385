#include "core/estimator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "graph/access.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace grw {

std::string EstimatorConfig::Name() const {
  std::string name = "SRW" + std::to_string(d);
  if (css) name += "CSS";
  if (nb) name += "NB";
  return name;
}

namespace {

template <class G>
std::unique_ptr<StateWalker> MakeWalker(const G& g, int d, bool nb) {
  if (d == 1) return std::make_unique<NodeWalkT<G>>(g, nb);
  if (d == 2) return std::make_unique<EdgeWalkT<G>>(g, nb);
  return std::make_unique<SubgraphWalkT<G>>(g, d, nb);
}

// Validated before any member initializer touches the k-indexed
// singletons (catalog, classifier, CSS tables).
EstimatorConfig ValidateEstimatorConfig(const EstimatorConfig& config) {
  if (config.k < 3 || config.k > kMaxGraphletSize) {
    throw std::invalid_argument("GraphletEstimator: k out of range");
  }
  if (config.d < 1 || config.d >= config.k) {
    throw std::invalid_argument("GraphletEstimator: need 1 <= d < k");
  }
  return config;
}

}  // namespace

template <class G>
double WindowSampleWeight(const G& g, const EstimatorConfig& config, int l,
                          const CssTable* css_table,
                          const std::vector<int64_t>& alpha,
                          const SampleWindowT<G>& window,
                          const MaskInfo& info, GdScratch& scratch) {
  if (config.css) {
    assert(css_table != nullptr && "CSS needs its table");
    return 1.0 / css_table->Eval(info, window.UnionNodes(), g, config.nb,
                                 scratch);
  }
  // Base estimator: 1 / (alpha^k_i * ~pi_e(X)) with
  // ~pi_e = prod over interior states of 1/degree (Theorem 2; nominal
  // degrees under NB, Section 4.2).
  const int64_t a = alpha[info.type];
  assert(a > 0 && "observed a graphlet the walk cannot produce");
  double interior_product = 1.0;
  for (int t = 1; t + 1 < l; ++t) {
    uint64_t deg = window.State(t).degree;
    assert(deg > 0 && "interior state degree not recorded");
    if (config.nb && deg > 1) deg -= 1;
    interior_product *= static_cast<double>(deg);
  }
  return interior_product / static_cast<double>(a);
}

#define GRW_INSTANTIATE(G)                                             \
  template double WindowSampleWeight<G>(                               \
      const G&, const EstimatorConfig&, int, const CssTable*,          \
      const std::vector<int64_t>&, const SampleWindowT<G>&,            \
      const MaskInfo&, GdScratch&);
GRW_ACCESS_FAMILY(GRW_INSTANTIATE)
#undef GRW_INSTANTIATE

template <class G>
GraphletEstimatorT<G>::GraphletEstimatorT(const G& g,
                                          const EstimatorConfig& config)
    : g_(&g),
      config_(ValidateEstimatorConfig(config)),
      l_(config.k - config.d + 1),
      num_types_(GraphletCatalog::ForSize(config.k).NumTypes()),
      classifier_(&GraphletClassifier::ForSize(config.k)),
      table_(&CssTable::For(config.k, config.d)),
      walker_(MakeWalker(g, config.d, config.nb)),
      window_(g, config.k, l_) {
  // Only the base weight reads window degrees, and only of interior
  // states, which a window of l = 2 states does not have.
  window_degrees_ = !config.css && l_ >= 3;
}

template <class G>
void GraphletEstimatorT<G>::Reset(uint64_t seed) {
  rng_.Seed(seed);
  weights_.fill(0.0);
  samples_.fill(0);
  steps_ = 0;
  valid_samples_ = 0;

  walker_->Reset(rng_);
  window_.Clear();
  window_.Push(walker_->Nodes(), 0, walker_->Known());
  // Fill the window: l states need l-1 transitions (Algorithm 1 line 3).
  for (int i = 1; i < l_; ++i) {
    if (window_degrees_) window_.SetNewestDegree(walker_->StateDegree());
    walker_->Step(rng_);
    window_.Push(walker_->Nodes(), 0, walker_->Known());
  }
}

template <class G>
void GraphletEstimatorT<G>::Run(uint64_t steps) {
  GraphletEstimatorT* const self = this;
  RunGroup({&self, 1}, steps);
}

// The most chains stepped as one interleaved group; a larger group runs
// as consecutive sub-groups of this size.
constexpr size_t kMaxGroupChains = 8;

template <class G>
void GraphletEstimatorT<G>::RunGroup(
    std::span<GraphletEstimatorT* const> group, uint64_t steps) {
  if (group.empty()) return;
  const int d = group[0]->config_.d;
  for (const GraphletEstimatorT* e : group) {
    if (e->config_.d != d) {
      throw std::invalid_argument(
          "GraphletEstimator::RunGroup: chains must share d");
    }
  }
  // d fixes the walk type (MakeWalker), and each walk class is final, so
  // stepping through the concrete type makes every walker call direct.
  if (d == 1) return StepGroup<NodeWalkT<G>>(group, steps);
  if (d == 2) return StepGroup<EdgeWalkT<G>>(group, steps);
  StepGroup<SubgraphWalkT<G>>(group, steps);
}

template <class G>
template <class W>
void GraphletEstimatorT<G>::StepGroup(
    std::span<GraphletEstimatorT* const> group, uint64_t steps) {
  for (size_t first = 0; first < group.size(); first += kMaxGroupChains) {
    const auto sub = group.subspan(
        first, std::min(kMaxGroupChains, group.size() - first));
    // Chains still stepping, as a prefix of `live`.
    std::array<GraphletEstimatorT*, kMaxGroupChains> live;
    std::copy(sub.begin(), sub.end(), live.begin());
    size_t n = sub.size();
    for (uint64_t i = 0; i < steps && n > 0; ++i) {
      // Crawl budget: a chain stops before its next transition once its
      // access has spent its distinct-query allowance. Static dispatch —
      // for Graph this check does not exist in the compiled loop.
      if constexpr (kAccessHasQueryBudget<G>) {
        n = static_cast<size_t>(
            std::remove_if(live.begin(), live.begin() + n,
                           [](const GraphletEstimatorT* e) {
                             return e->g_->BudgetExhausted();
                           }) -
            live.begin());
      }
      for (size_t c = 0; c < n; ++c) live[c]->template MoveStage<W>();
      for (size_t c = 0; c < n; ++c) live[c]->template PushStage<W>();
      for (size_t c = 0; c < n; ++c) live[c]->AccumulateStage();
    }
  }
}

// Snapshot the state's G(d)-degree before we leave it, if the weight
// reads window degrees (the walk needs none to move); transition; then
// the new window is evaluated, probing only the adjacency the move did
// not reveal.
template <class G>
template <class W>
void GraphletEstimatorT<G>::MoveStage() {
  W& walker = static_cast<W&>(*walker_);
  if (window_degrees_) window_.SetNewestDegree(walker.StateDegree());
  walker.Step(rng_);
  if constexpr (kAccessReadsArePlainLoads<G>) {
    for (const VertexId v : walker.Nodes()) g_->PrefetchRow(v);
  }
}

template <class G>
template <class W>
void GraphletEstimatorT<G>::PushStage() {
  const W& walker = static_cast<const W&>(*walker_);
  window_.Push(walker.Nodes(), 0, walker.Known());
  walker.PrefetchNext(rng_);
}

// Apart from the push: a push that misses on a probed list stalls, and
// the next chain's push, not this chain's dependent classify and weight,
// is then what the core can run ahead into.
template <class G>
void GraphletEstimatorT<G>::AccumulateStage() {
  ++steps_;
  Accumulate();
}

template <class G>
void GraphletEstimatorT<G>::Accumulate() {
  if (!window_.Valid()) return;  // fewer than k distinct nodes: invalid
  const uint32_t mask = window_.Mask();
  const MaskInfo& info = classifier_->Info(mask);
  assert(info.type >= 0 && "window union must induce a connected subgraph");
  const double w = SampleWeight(info);
  weights_[info.type] += w;
  samples_[info.type]++;
  ++valid_samples_;
}

template <class G>
double GraphletEstimatorT<G>::SampleWeight(const MaskInfo& info) const {
  return WindowSampleWeight(*g_, config_, l_, table_, table_->alpha(),
                            window_, info, gd_scratch_);
}

template <class G>
EstimateResult GraphletEstimatorT<G>::Result() const {
  EstimateResult result;
  result.weights.assign(weights_.begin(), weights_.begin() + num_types_);
  result.samples.assign(samples_.begin(), samples_.begin() + num_types_);
  result.steps = steps_;
  result.valid_samples = valid_samples_;
  FinalizeConcentrations(result);
  return result;
}

void FinalizeConcentrations(EstimateResult& result) {
  result.concentrations.assign(result.weights.size(), 0.0);
  double total = 0.0;
  for (double w : result.weights) total += w;
  if (total > 0.0) {
    for (size_t i = 0; i < result.weights.size(); ++i) {
      result.concentrations[i] = result.weights[i] / total;
    }
  }
}

void MergeInto(EstimateResult& into, const EstimateResult& from) {
  if (into.weights.empty() && into.steps == 0) {
    into = from;
    FinalizeConcentrations(into);
    return;
  }
  if (into.weights.size() != from.weights.size() ||
      into.samples.size() != from.samples.size()) {
    throw std::invalid_argument(
        "MergeInto: results disagree on the number of graphlet types");
  }
  for (size_t i = 0; i < into.weights.size(); ++i) {
    into.weights[i] += from.weights[i];
    into.samples[i] += from.samples[i];
  }
  into.steps += from.steps;
  into.valid_samples += from.valid_samples;
  FinalizeConcentrations(into);
}

EstimateResult MergeResults(const std::vector<EstimateResult>& parts) {
  EstimateResult merged;
  for (const EstimateResult& part : parts) MergeInto(merged, part);
  return merged;
}

std::vector<double> CountEstimatesFromResult(const EstimateResult& result,
                                             uint64_t relationship_edges) {
  std::vector<double> counts(result.weights.size(), 0.0);
  if (result.steps == 0) return counts;
  const double scale = 2.0 * static_cast<double>(relationship_edges) /
                       static_cast<double>(result.steps);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = result.weights[i] * scale;
  }
  return counts;
}

template <class G>
EstimateResult GraphletEstimatorT<G>::Estimate(const G& g,
                                               const EstimatorConfig& config,
                                               uint64_t steps,
                                               uint64_t seed) {
  GraphletEstimatorT<G> estimator(g, config);
  estimator.Reset(seed);
  estimator.Run(steps);
  return estimator.Result();
}

#define GRW_INSTANTIATE(G) template class GraphletEstimatorT<G>;
GRW_ACCESS_FAMILY(GRW_INSTANTIATE)
#undef GRW_INSTANTIATE

}  // namespace grw
