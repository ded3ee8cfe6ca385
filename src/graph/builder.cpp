#include "graph/builder.h"

#include <algorithm>
#include <numeric>

#include "util/chain_pool.h"
#include "util/parallel.h"

namespace grw {

namespace {

// Below this many half-edges the thread fan-out costs more than it saves;
// everything runs on the calling thread (which ParallelSort already
// guarantees for small inputs, this just keeps the constant in one place
// for the counting passes too).
constexpr size_t kParallelHalfEdgeCutoff = 1 << 16;

// Shared CSR assembly: takes directed half-edges (both directions present),
// sorts, dedupes, and emits the Graph. Sorting — the dominant cost on
// multi-million-edge inputs — and the per-node counting / neighbor fill
// passes fan out on the shared ChainPool; the result is identical to the
// serial pipeline at any thread count.
Graph AssembleCsr(VertexId num_nodes,
                  std::vector<std::pair<VertexId, VertexId>>& half_edges) {
  ParallelSort(half_edges);
  half_edges.erase(std::unique(half_edges.begin(), half_edges.end()),
                   half_edges.end());

  std::vector<uint64_t> offsets(static_cast<size_t>(num_nodes) + 1, 0);
  if (half_edges.size() < kParallelHalfEdgeCutoff || num_nodes == 0) {
    for (const auto& [u, v] : half_edges) offsets[u + 1]++;
  } else {
    // Per-node degree counting: each thread owns a contiguous node range,
    // finds its slice of the sorted half-edge array by binary search, and
    // counts into disjoint offsets entries — no atomics needed.
    const size_t chunks = std::min<size_t>(HardwareThreads(), num_nodes);
    ChainPool::Shared().ForEach(chunks, [&](size_t c) {
      const VertexId lo =
          static_cast<VertexId>(uint64_t{num_nodes} * c / chunks);
      const VertexId hi =
          static_cast<VertexId>(uint64_t{num_nodes} * (c + 1) / chunks);
      auto it = std::lower_bound(
          half_edges.begin(), half_edges.end(), lo,
          [](const auto& e, VertexId node) { return e.first < node; });
      for (; it != half_edges.end() && it->first < hi; ++it) {
        offsets[it->first + 1]++;
      }
    });
  }
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<VertexId> neighbors(half_edges.size());
  // half_edges are sorted by (u, v), so neighbors are emitted in sorted
  // order per node by a linear pass; chunks are independent.
  const size_t fill_chunks =
      half_edges.size() < kParallelHalfEdgeCutoff ? 1 : HardwareThreads();
  ChainPool::Shared().ForEach(fill_chunks, [&](size_t c) {
    const size_t lo = half_edges.size() * c / fill_chunks;
    const size_t hi = half_edges.size() * (c + 1) / fill_chunks;
    for (size_t i = lo; i < hi; ++i) neighbors[i] = half_edges[i].second;
  });
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace

Graph GraphBuilder::Build() {
  // Relabel sparse ids densely. Sort the distinct ids so the relabeling is
  // deterministic regardless of edge order.
  std::vector<uint64_t> ids;
  ids.reserve(edges_.size() * 2);
  for (const auto& [u, v] : edges_) {
    if (u != v) {  // self-loops never contribute a node on their own
      ids.push_back(u);
      ids.push_back(v);
    }
  }
  ParallelSort(ids);
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // Binary-search relabeling into the sorted distinct-id array: O(log n)
  // per endpoint, no hash map, and trivially parallel. Self-loops become a
  // sentinel pair that sorts past every real node and is trimmed below.
  constexpr VertexId kLoop = static_cast<VertexId>(-1);
  const size_t raw = edges_.size();
  std::vector<std::pair<VertexId, VertexId>> half(raw * 2);
  const size_t chunks =
      raw < kParallelHalfEdgeCutoff / 2 ? 1 : HardwareThreads();
  ChainPool::Shared().ForEach(chunks, [&](size_t c) {
    const size_t lo = raw * c / chunks;
    const size_t hi = raw * (c + 1) / chunks;
    for (size_t i = lo; i < hi; ++i) {
      const auto [u, v] = edges_[i];
      if (u == v) {
        half[2 * i] = {kLoop, kLoop};
        half[2 * i + 1] = {kLoop, kLoop};
        continue;
      }
      const auto a = static_cast<VertexId>(
          std::lower_bound(ids.begin(), ids.end(), u) - ids.begin());
      const auto b = static_cast<VertexId>(
          std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
      half[2 * i] = {a, b};
      half[2 * i + 1] = {b, a};
    }
  });
  edges_.clear();
  edges_.shrink_to_fit();
  half.erase(std::remove(half.begin(), half.end(),
                         std::pair<VertexId, VertexId>{kLoop, kLoop}),
             half.end());
  return AssembleCsr(static_cast<VertexId>(ids.size()), half);
}

Graph FromEdges(VertexId num_nodes,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  std::vector<std::pair<VertexId, VertexId>> half;
  half.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    half.emplace_back(u, v);
    half.emplace_back(v, u);
  }
  return AssembleCsr(num_nodes, half);
}

Graph LargestConnectedComponent(const Graph& g) {
  const VertexId n = g.NumNodes();
  if (n == 0) return Graph();

  constexpr VertexId kUnassigned = static_cast<VertexId>(-1);
  std::vector<VertexId> component(n, kUnassigned);
  std::vector<uint64_t> component_size;
  std::vector<VertexId> stack;

  for (VertexId s = 0; s < n; ++s) {
    if (component[s] != kUnassigned) continue;
    const VertexId c = static_cast<VertexId>(component_size.size());
    component_size.push_back(0);
    stack.push_back(s);
    component[s] = c;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      component_size[c]++;
      for (VertexId w : g.Neighbors(v)) {
        if (component[w] == kUnassigned) {
          component[w] = c;
          stack.push_back(w);
        }
      }
    }
  }

  const VertexId best =
      static_cast<VertexId>(std::max_element(component_size.begin(),
                                             component_size.end()) -
                            component_size.begin());

  // Dense relabeling of the winning component, preserving id order.
  std::vector<VertexId> new_id(n, kUnassigned);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (component[v] == best) new_id[v] = next++;
  }

  std::vector<std::pair<VertexId, VertexId>> half;
  // Two half-edges are kept per surviving undirected edge, so 2|E| bounds
  // the final size; reserving |E| (the old code) guaranteed a mid-loop
  // reallocation on any graph whose LCC holds more than half the edges.
  half.reserve(2 * g.NumEdges());
  for (VertexId v = 0; v < n; ++v) {
    if (component[v] != best) continue;
    for (VertexId w : g.Neighbors(v)) {
      half.emplace_back(new_id[v], new_id[w]);
    }
  }
  return AssembleCsr(next, half);
}

Graph RelabelByDegree(const Graph& g) {
  const VertexId n = g.NumNodes();
  if (n == 0) return Graph();

  // order[new] = old, highest degree first, ties by old id for determinism.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const uint32_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da > db : a < b;
  });
  std::vector<VertexId> new_id(n);
  for (VertexId i = 0; i < n; ++i) new_id[order[i]] = i;

  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId i = 0; i < n; ++i) offsets[i + 1] = g.Degree(order[i]);
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<VertexId> neighbors(g.RawNeighbors().size());
  // Each new node owns a disjoint slice; remap + per-list sort in parallel.
  const size_t chunks = std::min<size_t>(
      neighbors.size() < kParallelHalfEdgeCutoff ? 1 : HardwareThreads(), n);
  ChainPool::Shared().ForEach(chunks, [&](size_t c) {
    const VertexId lo = static_cast<VertexId>(uint64_t{n} * c / chunks);
    const VertexId hi = static_cast<VertexId>(uint64_t{n} * (c + 1) / chunks);
    for (VertexId i = lo; i < hi; ++i) {
      VertexId* out = neighbors.data() + offsets[i];
      size_t j = 0;
      for (VertexId w : g.Neighbors(order[i])) out[j++] = new_id[w];
      std::sort(out, out + j);
    }
  });
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace grw
