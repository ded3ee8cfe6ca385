#include "graphlet/classifier.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

namespace grw {

GraphletClassifier::GraphletClassifier(int k) : k_(k) {
  if (k < 3 || k > kMaxGraphletSize) {
    throw std::invalid_argument("GraphletClassifier: k out of range");
  }
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  table_.resize(1u << NumPairBits(k));
  // Mask p^-1(canonical) is filled by the first permutation p, in
  // next_permutation order, that carries it to canonical form: the one
  // CanonicalMask picks.
  int perm[kMaxGraphletSize];
  int inverse[kMaxGraphletSize];
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    const uint32_t canonical = catalog.Get(id).canonical_mask;
    std::iota(perm, perm + k, 0);
    do {
      for (int i = 0; i < k; ++i) inverse[perm[i]] = i;
      MaskInfo& info = table_[ApplyPermutation(canonical, k, inverse)];
      if (info.type >= 0) continue;
      info.type = static_cast<int16_t>(id);
      std::copy(inverse, inverse + k, info.position_of.begin());
    } while (std::next_permutation(perm, perm + k));
  }
}

const GraphletClassifier& GraphletClassifier::ForSize(int k) {
  if (k < 3 || k > kMaxGraphletSize) {
    throw std::invalid_argument(
        "GraphletClassifier::ForSize: k out of range");
  }
  static std::once_flag flags[kMaxGraphletSize + 1];
  static std::unique_ptr<GraphletClassifier> classifiers[kMaxGraphletSize +
                                                         1];
  std::call_once(flags[k], [k] {
    classifiers[k] =
        std::unique_ptr<GraphletClassifier>(new GraphletClassifier(k));
  });
  return *classifiers[k];
}

}  // namespace grw
