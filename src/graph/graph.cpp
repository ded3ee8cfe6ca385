#include "graph/graph.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/adjacency.h"

namespace grw {

namespace {

// Backing for graphs built in memory: owns the CSR vectors the spans view.
struct VectorBacking : Graph::Backing {
  VectorBacking(std::vector<uint64_t> o, std::vector<VertexId> n)
      : offsets(std::move(o)), neighbors(std::move(n)) {}
  std::vector<uint64_t> offsets;
  std::vector<VertexId> neighbors;
};

}  // namespace

Graph::Graph(std::vector<uint64_t> offsets, std::vector<VertexId> neighbors) {
  assert(!offsets.empty());
  assert(offsets.back() == neighbors.size());
  auto backing =
      std::make_shared<VectorBacking>(std::move(offsets), std::move(neighbors));
  offsets_ = backing->offsets;
  neighbors_ = backing->neighbors;
  backing_ = std::move(backing);
  max_degree_ = std::make_shared<std::atomic<uint32_t>>(kUnknownDegree);
}

bool Graph::IndexedHasEdge(VertexId u, VertexId v) const {
  if (u >= NumNodes() || v >= NumNodes() || u == v) return false;
  return index_->HasEdge(u, v);
}

void Graph::BuildAdjacencyIndex() { BuildAdjacencyIndex({}); }

void Graph::BuildAdjacencyIndex(const AdjacencyIndexOptions& options) {
  index_ = std::make_shared<AdjacencyIndex>(*this, options);
}

uint32_t Graph::MaxDegree() const {
  if (max_degree_) {
    const uint32_t cached = max_degree_->load(std::memory_order_relaxed);
    if (cached != kUnknownDegree) return cached;
  }
  uint32_t best = 0;
  for (VertexId v = 0; v < NumNodes(); ++v) best = std::max(best, Degree(v));
  if (max_degree_) max_degree_->store(best, std::memory_order_relaxed);
  return best;
}

uint64_t Graph::DegreeSquareSum() const {
  uint64_t sum = 0;
  for (VertexId v = 0; v < NumNodes(); ++v) {
    const uint64_t d = Degree(v);
    sum += d * d;
  }
  return sum;
}

uint64_t Graph::WedgeCount() const {
  uint64_t sum = 0;
  for (VertexId v = 0; v < NumNodes(); ++v) {
    const uint64_t d = Degree(v);
    sum += d * (d - 1) / 2;
  }
  return sum;
}

bool Graph::IsConnected() const {
  const VertexId n = NumNodes();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  VertexId count = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : Neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        ++count;
        stack.push_back(w);
      }
    }
  }
  return count == n;
}

std::string Graph::Summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%u m=%llu dmax=%u", NumNodes(),
                static_cast<unsigned long long>(NumEdges()), MaxDegree());
  return buf;
}

}  // namespace grw
