// O(1) graphlet-type classification of sampled subgraphs.
//
// The estimator must identify the graphlet type of a k-node sample at every
// random-walk step (paper Section 5, "Identify Graphlet Types"). We go one
// step past the paper's degree-signature method — which is ambiguous for
// some 5-node pairs — by precomputing, for every adjacency mask of a k-node
// graph, its catalog id and the permutation to canonical form. For k = 5
// that is a 1024-entry table; classification is a single load.
// The table is filled by relabeling each catalog graphlet k! ways, not by
// canonicalizing each mask, so k = 6 (32768 masks) builds in milliseconds.
//
// The stored permutation also drives CSS weighting (core/css.h): CSS
// coefficient patterns are expressed in canonical labels and must be mapped
// onto the observed sample's vertices.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graphlet/catalog.h"

namespace grw {

/// Per-mask classification record.
struct MaskInfo {
  /// Catalog id of the pattern, or -1 if the mask is disconnected.
  int16_t type = -1;
  /// position_of[c] = observed position of canonical label c (valid only
  /// when type >= 0).
  std::array<uint8_t, kMaxGraphletSize> position_of = {};
};

/// Precomputed classifier for k-node masks, 3 <= k <= kMaxGraphletSize.
class GraphletClassifier {
 public:
  explicit GraphletClassifier(int k);

  int k() const { return k_; }

  /// Catalog id for mask, or -1 if disconnected. O(1).
  int Type(uint32_t mask) const { return table_[mask].type; }

  /// Full record including the canonicalizing permutation. O(1).
  const MaskInfo& Info(uint32_t mask) const { return table_[mask]; }

  /// Shared per-size classifier (thread-safe singleton).
  static const GraphletClassifier& ForSize(int k);

 private:
  int k_;
  std::vector<MaskInfo> table_;
};

}  // namespace grw
