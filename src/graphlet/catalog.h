// Graphlet catalog: all connected, non-isomorphic, induced k-node subgraph
// patterns (paper Definition 1), generated programmatically.
//
// A k-node graph is represented as an adjacency bitmask over the C(k,2)
// unordered vertex pairs; the canonical form of a graph is the minimum mask
// of its orbit (its k! vertex relabelings). Scanning masks in ascending
// order, the catalog records each connected mask of an orbit not yet seen:
// 2 graphlets for k=3, 6 for k=4, 21 for k=5 and 112 for k=6, matching the
// counts quoted in the paper (Section 2.1).
//
// Catalog ids are ordered by (edge count, canonical mask) — deterministic
// but not the paper's pictorial order; core/paper_ids.h recovers the
// paper's g^k_i numbering on top of this catalog.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace grw {

/// Maximum graphlet size supported by the catalog (k! canonicalization and
/// 2^C(k,2) enumeration stay trivial through k = 6).
inline constexpr int kMaxGraphletSize = 6;
/// Number of graphlets of size kMaxGraphletSize, the largest catalog.
inline constexpr int kMaxGraphletTypes = 112;

/// Index of unordered pair (i, j), i < j < k, in the packed upper-triangle
/// bit layout. Pairs are ordered (0,1),(0,2),...,(0,k-1),(1,2),...
constexpr int PairIndex(int k, int i, int j) {
  return i * k - i * (i + 1) / 2 + (j - i - 1);
}

/// Number of pair bits for a k-node mask.
constexpr int NumPairBits(int k) { return k * (k - 1) / 2; }

/// True iff mask has the edge (i, j), i != j (order-insensitive).
constexpr bool MaskHasEdge(uint32_t mask, int k, int i, int j) {
  if (i > j) {
    const int t = i;
    i = j;
    j = t;
  }
  return (mask >> PairIndex(k, i, j)) & 1u;
}

/// Sets edge (i, j) in mask.
constexpr uint32_t MaskWithEdge(uint32_t mask, int k, int i, int j) {
  if (i > j) {
    const int t = i;
    i = j;
    j = t;
  }
  return mask | (1u << PairIndex(k, i, j));
}

/// Builds a mask from an explicit edge list over labels [0, k).
uint32_t MaskFromEdges(int k,
                       const std::vector<std::pair<int, int>>& edges);

/// True iff the k vertices are connected under mask (k >= 1).
bool MaskIsConnected(uint32_t mask, int k);

/// Relabels mask by perm: vertex i becomes perm[i].
uint32_t ApplyPermutation(uint32_t mask, int k, const int* perm);

/// Canonical (minimum) mask over all relabelings, and optionally the
/// first permutation in next_permutation order achieving it (vertex i of
/// the input gets canonical label canon_perm[i]). Brute force over k!
/// relabelings: the reference the tests check GraphletClassifier against.
uint32_t CanonicalMask(uint32_t mask, int k, int* canon_perm = nullptr);

/// One connected non-isomorphic pattern.
struct Graphlet {
  int k = 0;
  uint32_t canonical_mask = 0;
  int num_edges = 0;
  /// Edges in canonical labels, lexicographically sorted.
  std::vector<std::pair<int, int>> edges;
  /// Per-vertex degree within the graphlet (canonical labels).
  std::array<int, kMaxGraphletSize> degree = {};
  /// Human-readable name: standard names for k<=4, "k5-..." tags otherwise.
  std::string name;

  bool HasEdge(int i, int j) const {
    return MaskHasEdge(canonical_mask, k, i, j);
  }
};

/// The set of all k-node graphlets. Thread-safe shared singletons.
class GraphletCatalog {
 public:
  /// Catalog for a given size, 2 <= k <= kMaxGraphletSize. Built once,
  /// cached for the process lifetime.
  static const GraphletCatalog& ForSize(int k);

  int k() const { return k_; }
  int NumTypes() const { return static_cast<int>(graphlets_.size()); }
  const Graphlet& Get(int id) const { return graphlets_[id]; }

  /// Catalog id by graphlet name (e.g. "triangle", "4-path"); -1 if no
  /// such name.
  int IdByName(const std::string& name) const;

 private:
  explicit GraphletCatalog(int k);

  int k_;
  std::vector<Graphlet> graphlets_;
};

}  // namespace grw
