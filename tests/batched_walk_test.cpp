// Kernel-equivalence suite for the batched walk stack: lane k of a
// BatchedWalkT driven by RNG stream k must reproduce, transition for
// transition, the scalar walker driven by the same stream — states,
// G(d)-degrees, crawl accounting, estimator accumulators and engine
// merges all bit-identical. The batching is allowed to reorder memory
// traffic, never randomness; these tests hold that contract at every
// layer that adopts the batched kernels.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/batched_estimator.h"
#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/access.h"
#include "graph/adjacency.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "walk/batched_walk.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

// Heavy-tailed and clustered, like the paper's OSN snapshots: triad
// closure makes d >= 3 states plentiful and hub rows long enough to
// exercise the signature-rejection batches.
Graph PlainTestGraph() {
  Rng rng(7);
  return LargestConnectedComponent(HolmeKim(1500, 4, 0.4, rng));
}

Graph IndexedTestGraph() {
  Graph g = PlainTestGraph();
  g.BuildAdjacencyIndex();
  return g;
}

template <class G>
std::unique_ptr<StateWalker> MakeScalarWalker(const G& g, int d, bool nb) {
  if (d == 1) return std::make_unique<NodeWalkT<G>>(g, nb);
  if (d == 2) return std::make_unique<EdgeWalkT<G>>(g, nb);
  return std::make_unique<SubgraphWalkT<G>>(g, d, nb);
}

std::vector<VertexId> ToVector(std::span<const VertexId> nodes) {
  return {nodes.begin(), nodes.end()};
}

// The core contract: every lane's state sequence and state degrees match
// the scalar chain with the same stream, step for step.
template <class G>
void ExpectLanesMatchScalar([[maybe_unused]] const G& g,
                            BatchedWalkT<G>& batched,
                            std::vector<std::unique_ptr<StateWalker>>& scalar,
                            uint64_t base_seed, int steps,
                            bool exercise_fallbacks = false) {
  const int lanes = batched.lanes();
  std::vector<Rng> lane_rng(lanes);
  std::vector<Rng> chain_rng(lanes);
  for (int j = 0; j < lanes; ++j) {
    lane_rng[j].Seed(DeriveSeed(base_seed, j));
    chain_rng[j].Seed(DeriveSeed(base_seed, j));
    batched.ResetLane(j, lane_rng[j]);
    scalar[j]->Reset(chain_rng[j]);
    ASSERT_EQ(ToVector(batched.LaneNodes(j)), ToVector(scalar[j]->Nodes()))
        << "lane " << j << " after Reset";
  }
  for (int s = 0; s < steps; ++s) {
    if (!exercise_fallbacks || s % 2 == 0) {
      batched.PrepareLanes();
      // A second PrepareLanes must be a no-op (lanes already fresh).
      if (exercise_fallbacks) batched.PrepareLanes();
    }  // odd steps with exercise_fallbacks: StepLane prepares per lane
    for (int j = 0; j < lanes; ++j) {
      ASSERT_EQ(batched.LaneStateDegree(j), scalar[j]->StateDegree())
          << "lane " << j << " step " << s;
      if (exercise_fallbacks) {
        // Degree queries are cached and repeatable.
        ASSERT_EQ(batched.LaneStateDegree(j), scalar[j]->StateDegree());
      }
      batched.StepLane(j, lane_rng[j]);
      scalar[j]->Step(chain_rng[j]);
      ASSERT_EQ(ToVector(batched.LaneNodes(j)), ToVector(scalar[j]->Nodes()))
          << "lane " << j << " step " << s;
    }
  }
}

TEST(BatchedWalkTest, LanesBitIdenticalToScalarChainsFullAccess) {
  const Graph plain = PlainTestGraph();
  const Graph indexed = IndexedTestGraph();
  for (const Graph* g : {&plain, &indexed}) {
    for (int d : {1, 2, 3, 4}) {
      for (int lanes : {1, 4, 8, 16}) {
        for (bool nb : {false, true}) {
          SCOPED_TRACE("d=" + std::to_string(d) +
                       " lanes=" + std::to_string(lanes) +
                       " nb=" + std::to_string(nb) + " indexed=" +
                       std::to_string(g->adjacency_index() != nullptr));
          BatchedWalk batched(*g, d, lanes, nb);
          std::vector<std::unique_ptr<StateWalker>> scalar;
          for (int j = 0; j < lanes; ++j) {
            scalar.push_back(MakeScalarWalker(*g, d, nb));
          }
          const int steps = d >= 3 ? 60 : 200;
          ExpectLanesMatchScalar(*g, batched, scalar,
                                 /*base_seed=*/9000 + d, steps);
        }
      }
    }
  }
}

TEST(BatchedWalkTest, PreparationIsOptionalAndCachesAreReusable) {
  // Skipping PrepareLanes (per-lane fallback), calling it twice, and
  // repeating LaneStateDegree must not move a single transition.
  const Graph g = IndexedTestGraph();
  for (int d : {2, 3, 4}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    BatchedWalk batched(g, d, /*lanes=*/5, /*nb=*/d == 3);
    std::vector<std::unique_ptr<StateWalker>> scalar;
    for (int j = 0; j < 5; ++j) {
      scalar.push_back(MakeScalarWalker(g, d, d == 3));
    }
    ExpectLanesMatchScalar(g, batched, scalar, /*base_seed=*/77, 60,
                           /*exercise_fallbacks=*/true);
  }
}

TEST(BatchedWalkTest, CrawlLanesMatchScalarChainsAndAccounting) {
  // Crawl lanes read through private access objects; the kernel must
  // make exactly the scalar walker's access calls — same states AND same
  // per-lane query accounting.
  const Graph g = PlainTestGraph();
  for (int d : {3, 4}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    constexpr int kLanes = 4;
    std::vector<std::unique_ptr<CrawlAccess>> lane_access;
    std::vector<std::unique_ptr<CrawlAccess>> chain_access;
    std::vector<const CrawlAccess*> lane_ptrs;
    for (int j = 0; j < kLanes; ++j) {
      lane_access.push_back(std::make_unique<CrawlAccess>(g, CrawlAccess::Options{}));
      chain_access.push_back(std::make_unique<CrawlAccess>(g, CrawlAccess::Options{}));
      lane_ptrs.push_back(lane_access[j].get());
    }
    BatchedWalkT<CrawlAccess> batched(
        std::span<const CrawlAccess* const>(lane_ptrs), d);
    std::vector<std::unique_ptr<StateWalker>> scalar;
    for (int j = 0; j < kLanes; ++j) {
      scalar.push_back(MakeScalarWalker(*chain_access[j], d, false));
    }
    ExpectLanesMatchScalar(*lane_ptrs[0], batched, scalar,
                           /*base_seed=*/4242, 60);
    for (int j = 0; j < kLanes; ++j) {
      const CrawlStats& lane = lane_access[j]->stats();
      const CrawlStats& chain = chain_access[j]->stats();
      EXPECT_EQ(lane.fetches, chain.fetches) << "lane " << j;
      EXPECT_EQ(lane.distinct_fetches, chain.distinct_fetches)
          << "lane " << j;
      EXPECT_EQ(lane.cache_hits, chain.cache_hits) << "lane " << j;
    }
  }
}

void ExpectBitIdentical(const EstimateResult& a, const EstimateResult& b) {
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
    EXPECT_EQ(a.concentrations[i], b.concentrations[i]) << "conc " << i;
    EXPECT_EQ(a.samples[i], b.samples[i]) << "samples " << i;
  }
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.valid_samples, b.valid_samples);
}

TEST(BatchedEstimatorTest, LanesBitIdenticalToScalarEstimators) {
  const Graph g = IndexedTestGraph();
  const std::vector<EstimatorConfig> configs = {
      {3, 1, true, true, 0},    // SRW1CSSNB: NodeWalk + CSS table
      {4, 2, true, false, 0},   // SRW2CSS:   EdgeWalk + CSS table
      {5, 3, false, false, 0},  // SRW3:      G(d) enumeration
      {5, 4, false, true, 0},   // SRW4NB:    deeper window, NB rejection
  };
  constexpr int kLanes = 6;
  constexpr uint64_t kBase = 555;
  for (const EstimatorConfig& config : configs) {
    SCOPED_TRACE(config.Name());
    const uint64_t steps = config.d >= 3 ? 300 : 3000;
    BatchedEstimator batched(g, config, kLanes);
    batched.Reset(kBase, /*first_stream=*/3);
    batched.Run(steps);
    for (int j = 0; j < kLanes; ++j) {
      const EstimateResult scalar = GraphletEstimator::Estimate(
          g, config, steps, DeriveSeed(kBase, 3 + j));
      ExpectBitIdentical(batched.Result(j), scalar);
    }
  }
}

TEST(BatchedEngineTest, MergedBitIdenticalToScalarAnyThreadsAnyLanes) {
  // The headline guarantee: flipping batch mode on — at any lane width,
  // at any thread count — moves no double in the engine result.
  const Graph g = IndexedTestGraph();
  EstimatorConfig config;
  config.k = 4;
  config.d = 2;
  config.css = true;

  EngineOptions options;
  options.chains = 5;
  options.max_steps = 3000;
  options.base_seed = 77;
  options.chain_offset = 2;

  EstimationEngine scalar_engine(g, config, options);
  const EngineResult reference = scalar_engine.Run();

  for (int lanes : {1, 3, 8}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      EngineOptions run = options;
      run.threads = threads;
      run.batch.enabled = true;
      run.batch.lanes = lanes;
      EstimationEngine engine(g, config, run);
      const EngineResult result = engine.Run();
      ExpectBitIdentical(result.merged, reference.merged);
      ASSERT_EQ(result.per_chain.size(), reference.per_chain.size());
      for (size_t c = 0; c < reference.per_chain.size(); ++c) {
        ExpectBitIdentical(result.per_chain[c], reference.per_chain[c]);
      }
    }
  }
}

TEST(BatchedEngineTest, CrawlBudgetStopBitIdenticalToScalar) {
  // Budget verdicts are per chain; the batched grouping must neither
  // move a chain's stop point nor its query accounting.
  const Graph g = PlainTestGraph();
  EstimatorConfig config;
  config.k = 5;
  config.d = 3;

  EngineOptions options;
  options.chains = 4;
  options.max_steps = 2000;
  options.base_seed = 913;
  options.round_steps = 256;
  options.crawl.enabled = true;
  options.crawl.budget_queries = 800;

  EstimationEngine scalar_engine(g, config, options);
  const EngineResult reference = scalar_engine.Run();
  EXPECT_TRUE(reference.budget_exhausted);

  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineOptions run = options;
    run.threads = threads;
    run.batch.enabled = true;
    run.batch.lanes = 4;
    EstimationEngine engine(g, config, run);
    const EngineResult result = engine.Run();
    ExpectBitIdentical(result.merged, reference.merged);
    EXPECT_EQ(result.budget_exhausted, reference.budget_exhausted);
    EXPECT_EQ(result.rounds, reference.rounds);
    ASSERT_EQ(result.per_chain_access.size(),
              reference.per_chain_access.size());
    for (size_t c = 0; c < reference.per_chain_access.size(); ++c) {
      EXPECT_EQ(result.per_chain_access[c].fetches,
                reference.per_chain_access[c].fetches)
          << "chain " << c;
      EXPECT_EQ(result.per_chain_access[c].distinct_fetches,
                reference.per_chain_access[c].distinct_fetches)
          << "chain " << c;
      EXPECT_EQ(result.per_chain_access[c].cache_hits,
                reference.per_chain_access[c].cache_hits)
          << "chain " << c;
    }
  }
}

TEST(BatchedEngineTest, RejectsInvalidBatchConfigs) {
  const Graph g = PlainTestGraph();
  EstimatorConfig config;
  EngineOptions options;
  options.batch.enabled = true;
  options.batch.lanes = 0;
  EXPECT_THROW(EstimationEngine(g, config, options), std::invalid_argument);
}

}  // namespace
}  // namespace grw
