// Corresponding state sampling (CSS) weights — paper Section 4.1.
//
// CSS replaces the re-weight term alpha^k_i * pi_e(X) by the *sampling
// probability* p(X) = sum over all corresponding states X' in C(s) of
// pi_e(X'), which uses the degree information of every vertex of the
// sampled subgraph instead of only the interior of the one sequence the
// walk happened to traverse. Lemma 5 shows the resulting estimator has no
// larger variance.
//
// Evaluating p(X) per Algorithm 3 naively enumerates sequences at every
// step. We instead compile, once per (k, d, graphlet type), the sequences
// into *interior coefficient tables*: for l = k-d+1 the expanded-chain
// weight of a sequence depends only on its l-2 interior states, so
//
//   2|R(d)| p(X) = sum_entries count(entry) * prod_{state in entry}
//                  1 / deg_{G(d)}(state),
//
// where entries group sequences by their (unordered) interior state
// multiset. For SRW1/k=3 and SRW2/k=4 this reproduces the closed forms of
// paper Table 4; for SRW2/k=5 it is a <=100-term sum — a handful of
// multiply-adds per step instead of a path enumeration.
//
// The table also records each type's alpha^k_i (core/alpha.h): it is the
// one enumeration of the sequences per (k, d) per process.
//
// The table exists for every d < k. At d <= 2 an interior state's degree
// is a closed form over vertex degrees; at d >= 3 it is counted by
// SubgraphStateDegree (the "SRW3CSS" the paper deems too expensive to
// bench), once per entry rather than once per sequence.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graphlet/classifier.h"

namespace grw {

struct GdScratch;  // walk/subgraph_walk.h

/// One group of corresponding sequences sharing an interior state multiset.
struct CssEntry {
  /// Interior states as vertex bitmasks over canonical labels, sorted.
  std::array<uint16_t, 4> interior = {};
  uint8_t num_interior = 0;
  /// Number of corresponding sequences with this interior multiset.
  uint32_t count = 0;
};

/// Compiled CSS weights for all graphlets of one size under one walk.
class CssTable {
 public:
  /// Builds the table for k-node graphlets under a walk on G(d), d < k.
  CssTable(int k, int d);

  int k() const { return k_; }
  int d() const { return d_; }

  /// The compiled entries for a catalog graphlet id.
  const std::vector<CssEntry>& Entries(int type) const {
    return entries_[type];
  }

  /// alpha^k_i per catalog id: each type's entry counts summed.
  const std::vector<int64_t>& alpha() const { return alpha_; }

  /// Evaluates 2|R(d)| * p(X) for a sample with classification `info`
  /// (from GraphletClassifier) whose window vertices are `nodes` (the
  /// order the mask was built in). `nb` applies the non-backtracking
  /// nominal degree d' = max(d-1, 1). Degree reads go through the access
  /// policy G (a crawl cache charges/caches them); at d >= 3 each interior
  /// state's G(d)-degree is counted with `scratch` as workspace. Defined
  /// in css.cpp for every GRW_ACCESS_FAMILY member (graph/access.h).
  template <class G>
  double Eval(const MaskInfo& info, std::span<const VertexId> nodes,
              const G& g, bool nb, GdScratch& scratch) const;

  /// Shared singleton per (k, d); thread-safe.
  static const CssTable& For(int k, int d);

 private:
  int k_;
  int d_;
  std::vector<std::vector<CssEntry>> entries_;  // per catalog id
  std::vector<int64_t> alpha_;                  // per catalog id
};

}  // namespace grw
