#include "exact/esu.h"

#include <bit>
#include <cassert>

#include "graphlet/catalog.h"
#include "graphlet/classifier.h"

namespace grw {

namespace {

// Recursive ESU with timestamped marks (no O(n) clears per anchor) and a
// single shared extension stack (each recursion level appends its candidate
// window past its parent's).
//
// The scan of N(w) that grows the extension set also records adjacency:
// adding w at position p sets bit p of adj_[u] for every neighbor u > anchor
// (the only vertices that can join the subgraph), and backtracking clears
// it. So the vertex pushed at position i finds its edges to positions < i in
// adj_ already, and visit(sub, earlier) receives earlier[i] with bit j set
// iff sub[i] ~ sub[j], j < i — no edge probe per subgraph. The last level
// adds a vertex without scanning: its extension set would never be read.
template <class Visit>
class EsuRunner {
 public:
  EsuRunner(const Graph& g, int k, Visit visit)
      : g_(g), k_(k), visit_(visit), mark_(g.NumNodes(), 0),
        adj_(g.NumNodes(), 0) {}

  void Run() {
    for (VertexId v = 0; v < g_.NumNodes(); ++v) {
      anchor_ = v;
      ++stamp_;
      ext_.clear();
      Grow(v, 0);
    }
  }

 private:
  bool Touched(VertexId v) const { return mark_[v] >= stamp_ * 2; }

  // Adds w to the subgraph, extends it with the candidates from ext_[child]
  // on plus w's exclusive neighbors, then takes w out again.
  void Grow(VertexId w, int child) {
    const int pos = static_cast<int>(sub_.size());
    const uint32_t bit = 1u << pos;
    const size_t unmark_from = newly_seen_.size();
    for (VertexId u : g_.Neighbors(w)) {
      if (u <= anchor_) continue;
      adj_[u] |= bit;
      if (!Touched(u)) {
        mark_[u] = stamp_ * 2;  // seen
        newly_seen_.push_back(u);
        ext_.push_back(u);
      }
    }
    sub_.push_back(w);
    earlier_.push_back(adj_[w] & (bit - 1));
    mark_[w] = stamp_ * 2 + 1;  // in subgraph
    Extend(child, static_cast<int>(ext_.size()) - child);
    mark_[w] = stamp_ * 2;
    earlier_.pop_back();
    sub_.pop_back();
    for (VertexId u : g_.Neighbors(w)) {
      if (u > anchor_) adj_[u] &= ~bit;
    }
    // Nodes first seen through w become unseen again, so sibling
    // branches may rediscover them (exclusive-neighborhood rule).
    while (newly_seen_.size() > unmark_from) {
      mark_[newly_seen_.back()] = 0;
      newly_seen_.pop_back();
    }
  }

  // Extends the current subgraph with candidates ext_[base, base + size).
  void Extend(int base, int size) {
    const int pos = static_cast<int>(sub_.size());
    if (pos == k_ - 1) {
      // Each candidate completes a subgraph in the last slot; nothing
      // reads its mark, so only sub_ and earlier_ change.
      sub_.push_back(0);
      earlier_.push_back(0);
      const uint32_t below = (1u << pos) - 1;
      for (int i = size - 1; i >= 0; --i) {
        const VertexId w = ext_[base + i];
        sub_.back() = w;
        earlier_.back() = adj_[w] & below;
        visit_(std::span<const VertexId>(sub_),
               std::span<const uint32_t>(earlier_));
      }
      sub_.pop_back();
      earlier_.pop_back();
      return;
    }
    // ESU: repeatedly remove one candidate w from the extension set and
    // recurse on {remaining candidates} ∪ {exclusive neighbors of w}.
    for (int i = size - 1; i >= 0; --i) {
      const VertexId w = ext_[base + i];
      const int child = static_cast<int>(ext_.size());
      for (int j = 0; j < i; ++j) {
        const VertexId keep = ext_[base + j];  // copy before push_back
        ext_.push_back(keep);
      }
      Grow(w, child);
      ext_.resize(child);
    }
  }

  const Graph& g_;
  const int k_;
  Visit visit_;
  VertexId anchor_ = 0;
  uint64_t stamp_ = 0;
  std::vector<uint64_t> mark_;
  std::vector<uint32_t> adj_;  // bit p: adjacent to the vertex at position p
  std::vector<VertexId> sub_;
  std::vector<uint32_t> earlier_;  // parallel to sub_
  std::vector<VertexId> ext_;
  std::vector<VertexId> newly_seen_;
};

}  // namespace

void ForEachConnectedSubgraph(
    const Graph& g, int k,
    const std::function<void(std::span<const VertexId>)>& visit) {
  assert(k >= 1 && k <= 32);
  if (k == 1) {
    for (VertexId v = 0; v < g.NumNodes(); ++v) visit({&v, 1});
    return;
  }
  EsuRunner(g, k, [&visit](std::span<const VertexId> nodes,
                           std::span<const uint32_t>) { visit(nodes); })
      .Run();
}

std::vector<int64_t> CountGraphletsEsu(const Graph& g, int k) {
  assert(k >= 3 && k <= kMaxGraphletSize);
  const GraphletClassifier& classifier = GraphletClassifier::ForSize(k);
  std::vector<int64_t> counts(GraphletCatalog::ForSize(k).NumTypes(), 0);
  // pair_bits[i][b]: the mask bits of the edges from position i to the
  // earlier positions set in b, so a leaf's mask is k - 1 table loads.
  std::vector<std::vector<uint32_t>> pair_bits(k);
  for (int i = 1; i < k; ++i) {
    pair_bits[i].assign(1u << i, 0);
    for (uint32_t b = 1; b < (1u << i); ++b) {
      const int j = std::countr_zero(b);
      pair_bits[i][b] = MaskWithEdge(pair_bits[i][b & (b - 1)], k, j, i);
    }
  }
  EsuRunner(g, k, [&](std::span<const VertexId>,
                      std::span<const uint32_t> earlier) {
    uint32_t mask = 0;
    for (int i = 1; i < k; ++i) mask |= pair_bits[i][earlier[i]];
    const int type = classifier.Type(mask);
    assert(type >= 0);
    counts[type]++;
  }).Run();
  return counts;
}

uint64_t CountConnectedSubgraphs(const Graph& g, int d) {
  uint64_t count = 0;
  ForEachConnectedSubgraph(g, d,
                           [&count](std::span<const VertexId>) { ++count; });
  return count;
}

}  // namespace grw
