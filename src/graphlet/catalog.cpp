#include "graphlet/catalog.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

namespace grw {

uint32_t MaskFromEdges(int k,
                       const std::vector<std::pair<int, int>>& edges) {
  uint32_t mask = 0;
  for (const auto& [i, j] : edges) {
    assert(i != j && i >= 0 && j >= 0 && i < k && j < k);
    mask = MaskWithEdge(mask, k, i, j);
  }
  return mask;
}

bool MaskIsConnected(uint32_t mask, int k) {
  if (k <= 1) return true;
  uint32_t visited = 1u;  // vertex bit set, start from vertex 0
  uint32_t frontier = 1u;
  while (frontier != 0) {
    uint32_t next = 0;
    for (int i = 0; i < k; ++i) {
      if (!((frontier >> i) & 1u)) continue;
      for (int j = 0; j < k; ++j) {
        if (j != i && !((visited >> j) & 1u) && MaskHasEdge(mask, k, i, j)) {
          next |= 1u << j;
        }
      }
    }
    visited |= next;
    frontier = next;
  }
  return visited == (1u << k) - 1u;
}

uint32_t ApplyPermutation(uint32_t mask, int k, const int* perm) {
  uint32_t out = 0;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (MaskHasEdge(mask, k, i, j)) {
        out = MaskWithEdge(out, k, perm[i], perm[j]);
      }
    }
  }
  return out;
}

uint32_t CanonicalMask(uint32_t mask, int k, int* canon_perm) {
  int perm[kMaxGraphletSize] = {};
  std::iota(perm, perm + k, 0);
  uint32_t best = ApplyPermutation(mask, k, perm);
  if (canon_perm != nullptr) std::copy(perm, perm + k, canon_perm);
  while (std::next_permutation(perm, perm + k)) {
    const uint32_t candidate = ApplyPermutation(mask, k, perm);
    if (candidate < best) {
      best = candidate;
      if (canon_perm != nullptr) std::copy(perm, perm + k, canon_perm);
    }
  }
  return best;
}

namespace {

// Standard names for the small graphlets, in paper Figure 2 terminology.
std::string GraphletName(const Graphlet& g, int index_within_size) {
  if (g.k == 3) return g.num_edges == 2 ? "wedge" : "triangle";
  if (g.k == 4) {
    // Distinguish by degree multiset.
    const auto [min_deg, max_deg] =
        std::minmax_element(g.degree.begin(), g.degree.begin() + 4);
    if (g.num_edges == 3) return *max_deg == 3 ? "3-star" : "4-path";
    if (g.num_edges == 4) return *min_deg == 2 ? "4-cycle" : "tailed-triangle";
    if (g.num_edges == 5) return "chordal-cycle";
    return "4-clique";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%d-e%d-%d", g.k, g.num_edges,
                index_within_size);
  return buf;
}

}  // namespace

GraphletCatalog::GraphletCatalog(int k) : k_(k) {
  if (k < 2 || k > kMaxGraphletSize) {
    throw std::invalid_argument("GraphletCatalog: k out of range");
  }
  const uint32_t num_masks = 1u << NumPairBits(k);

  // Masks are scanned in ascending order, so the first mask reached of
  // each relabeling orbit is its minimum: the canonical form. Marking the
  // whole orbit seen skips its other members.
  std::vector<uint32_t> canon_masks;
  std::vector<char> seen(num_masks, 0);
  int perm[kMaxGraphletSize];
  for (uint32_t mask = 0; mask < num_masks; ++mask) {
    if (seen[mask]) continue;
    std::iota(perm, perm + k, 0);
    do {
      seen[ApplyPermutation(mask, k, perm)] = 1;
    } while (std::next_permutation(perm, perm + k));
    if (MaskIsConnected(mask, k)) canon_masks.push_back(mask);
  }
  // Ids order by (edge count, canonical mask); the masks are ascending.
  std::stable_sort(canon_masks.begin(), canon_masks.end(),
                   [](uint32_t a, uint32_t b) {
                     return std::popcount(a) < std::popcount(b);
                   });

  int index_within_edge_count = 0;
  int prev_edges = -1;
  for (uint32_t canon : canon_masks) {
    Graphlet g;
    g.k = k;
    g.canonical_mask = canon;
    g.num_edges = std::popcount(canon);
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        if (MaskHasEdge(canon, k, i, j)) {
          g.edges.emplace_back(i, j);
          g.degree[i]++;
          g.degree[j]++;
        }
      }
    }
    index_within_edge_count =
        g.num_edges == prev_edges ? index_within_edge_count + 1 : 0;
    prev_edges = g.num_edges;
    g.name = GraphletName(g, index_within_edge_count);
    graphlets_.push_back(std::move(g));
  }
}

int GraphletCatalog::IdByName(const std::string& name) const {
  for (size_t id = 0; id < graphlets_.size(); ++id) {
    if (graphlets_[id].name == name) return static_cast<int>(id);
  }
  return -1;
}

const GraphletCatalog& GraphletCatalog::ForSize(int k) {
  if (k < 2 || k > kMaxGraphletSize) {
    throw std::invalid_argument("GraphletCatalog::ForSize: k out of range");
  }
  static std::once_flag flags[kMaxGraphletSize + 1];
  static std::unique_ptr<GraphletCatalog> catalogs[kMaxGraphletSize + 1];
  std::call_once(flags[k], [k] {
    catalogs[k] = std::unique_ptr<GraphletCatalog>(new GraphletCatalog(k));
  });
  return *catalogs[k];
}

}  // namespace grw
