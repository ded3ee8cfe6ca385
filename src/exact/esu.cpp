#include "exact/esu.h"

#include <cassert>

#include "graphlet/catalog.h"
#include "graphlet/classifier.h"
#include "graphlet/orbits.h"

namespace grw {

namespace {

// Recursive ESU with timestamped marks (no O(n) clears per anchor) and a
// single shared extension stack (each recursion level appends its candidate
// window past its parent's).
class EsuRunner {
 public:
  EsuRunner(const Graph& g, int k,
            const std::function<void(std::span<const VertexId>)>& visit)
      : g_(g), k_(k), visit_(visit), mark_(g.NumNodes(), 0) {}

  void Run() {
    for (VertexId v = 0; v < g_.NumNodes(); ++v) {
      anchor_ = v;
      ++stamp_;
      sub_.assign(1, v);
      mark_[v] = stamp_ * 2 + 1;  // in subgraph
      ext_.clear();
      for (VertexId w : g_.Neighbors(v)) {
        if (w > v) {
          ext_.push_back(w);
          mark_[w] = stamp_ * 2;  // seen
        }
      }
      Extend(0, static_cast<int>(ext_.size()));
    }
  }

 private:
  bool Touched(VertexId v) const { return mark_[v] >= stamp_ * 2; }

  // Extends the current subgraph with candidates ext_[base, base + size).
  void Extend(int base, int size) {
    if (static_cast<int>(sub_.size()) == k_) {
      visit_({sub_.data(), sub_.size()});
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
      const size_t unmark_from = newly_seen_.size();
      for (VertexId u : g_.Neighbors(w)) {
        if (u > anchor_ && !Touched(u)) {
          mark_[u] = stamp_ * 2;
          newly_seen_.push_back(u);
          ext_.push_back(u);
        }
      }
      sub_.push_back(w);
      mark_[w] = stamp_ * 2 + 1;
      Extend(child, static_cast<int>(ext_.size()) - child);
      mark_[w] = stamp_ * 2;
      sub_.pop_back();
      // Nodes first seen through w become unseen again, so sibling
      // branches may rediscover them (exclusive-neighborhood rule).
      while (newly_seen_.size() > unmark_from) {
        mark_[newly_seen_.back()] = 0;
        newly_seen_.pop_back();
      }
      ext_.resize(child);
    }
  }

  const Graph& g_;
  const int k_;
  const std::function<void(std::span<const VertexId>)>& visit_;
  VertexId anchor_ = 0;
  uint64_t stamp_ = 0;
  std::vector<uint64_t> mark_;
  std::vector<VertexId> sub_;
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
  EsuRunner runner(g, k, visit);
  runner.Run();
}

std::vector<int64_t> CountGraphletsEsu(const Graph& graph, int k) {
  assert(k >= 3 && k <= kMaxGraphletSize);
  const GraphletClassifier& classifier = GraphletClassifier::ForSize(k);
  std::vector<int64_t> counts(GraphletCatalog::ForSize(k).NumTypes(), 0);
  // Classification does C(k,2) HasEdge probes per enumerated subgraph —
  // millions on any interesting graph — the one regime where the
  // adjacency index beats binary search, so this is the one place that
  // builds it. The copy shares the caller's CSR; counts are identical
  // either way.
  Graph g = graph;
  if (g.adjacency_index() == nullptr) g.BuildAdjacencyIndex();
  ForEachConnectedSubgraph(
      g, k, [&](std::span<const VertexId> nodes) {
        uint32_t mask = 0;
        for (int i = 0; i < k; ++i) {
          for (int j = i + 1; j < k; ++j) {
            if (g.HasEdge(nodes[i], nodes[j])) {
              mask = MaskWithEdge(mask, k, i, j);
            }
          }
        }
        const int type = classifier.Type(mask);
        assert(type >= 0);
        counts[type]++;
      });
  return counts;
}

std::vector<int64_t> GraphletDegreeVector(const Graph& g, VertexId v,
                                          int k) {
  const OrbitCatalog& orbits = OrbitCatalog::ForSize(k);
  const GraphletClassifier& classifier = GraphletClassifier::ForSize(k);
  std::vector<int64_t> gdv(orbits.NumOrbits(), 0);
  // One full enumeration, filtered to subgraphs containing v. (For
  // one-off queries anchoring ESU at v would be cheaper; computing GDVs
  // for all nodes costs one pass this way.)
  ForEachConnectedSubgraph(g, k, [&](std::span<const VertexId> nodes) {
    int position = -1;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == v) {
        position = static_cast<int>(i);
        break;
      }
    }
    if (position < 0) return;
    uint32_t mask = 0;
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        if (g.HasEdge(nodes[i], nodes[j])) {
          mask = MaskWithEdge(mask, k, i, j);
        }
      }
    }
    const MaskInfo& info = classifier.Info(mask);
    gdv[orbits.OrbitOf(info.type, info.canonical_label_of[position])]++;
  });
  return gdv;
}

uint64_t CountConnectedSubgraphs(const Graph& g, int d) {
  uint64_t count = 0;
  ForEachConnectedSubgraph(g, d,
                           [&count](std::span<const VertexId>) { ++count; });
  return count;
}

}  // namespace grw
