#include "graphlet/classifier.h"

#include <cassert>
#include <stdexcept>
#include <memory>
#include <mutex>

namespace grw {

GraphletClassifier::GraphletClassifier(int k) : k_(k) {
  if (k < 3 || k > kMaxGraphletSize) {
    throw std::invalid_argument("GraphletClassifier: k out of range");
  }
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  const uint32_t num_masks = 1u << NumPairBits(k);
  table_.resize(num_masks);
  for (uint32_t mask = 0; mask < num_masks; ++mask) {
    MaskInfo& info = table_[mask];
    if (!MaskIsConnected(mask, k)) continue;
    int perm[kMaxGraphletSize];
    const uint32_t canon = CanonicalMask(mask, k, perm);
    info.type = static_cast<int16_t>(catalog.IdForCanonicalMask(canon));
    assert(info.type >= 0);
    for (int i = 0; i < k; ++i) {
      info.position_of[perm[i]] = static_cast<uint8_t>(i);
    }
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
