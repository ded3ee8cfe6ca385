// Tests for the O(1) bitmask classifier, including the degree-signature
// ambiguity of 5-node graphlets that motivates exact classification.

#include "graphlet/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "graphlet/catalog.h"

namespace grw {
namespace {

TEST(ClassifierTest, EveryConnectedMaskGetsItsCatalogId) {
  // The whole table against brute force: CanonicalMask's permutation, and
  // the catalog id of the canonical mask it reaches.
  for (int k = 3; k <= kMaxGraphletSize; ++k) {
    const GraphletClassifier& classifier = GraphletClassifier::ForSize(k);
    const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
    std::map<uint32_t, int> id_of;
    for (int id = 0; id < catalog.NumTypes(); ++id) {
      id_of[catalog.Get(id).canonical_mask] = id;
    }
    const uint32_t num_masks = 1u << NumPairBits(k);
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      const MaskInfo& info = classifier.Info(mask);
      if (!MaskIsConnected(mask, k)) {
        ASSERT_EQ(info.type, -1) << "k=" << k << " mask=" << mask;
        continue;
      }
      int perm[kMaxGraphletSize];
      const uint32_t canonical = CanonicalMask(mask, k, perm);
      ASSERT_EQ(id_of.count(canonical), 1u) << "k=" << k;
      ASSERT_EQ(info.type, id_of[canonical]) << "k=" << k << " mask=" << mask;
      for (int i = 0; i < k; ++i) {
        ASSERT_EQ(info.position_of[perm[i]], i)
            << "k=" << k << " mask=" << mask << " vertex=" << i;
      }
    }
  }
}

TEST(ClassifierTest, PermutationsMapMaskToCanonicalForm) {
  for (int k = 3; k <= 5; ++k) {
    const GraphletClassifier& classifier = GraphletClassifier::ForSize(k);
    const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
    const uint32_t num_masks = 1u << NumPairBits(k);
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      const MaskInfo& info = classifier.Info(mask);
      if (info.type < 0) continue;
      // position_of is a permutation, and relabeling the mask by its
      // inverse (position -> canonical label) gives the canonical mask.
      int perm[kMaxGraphletSize];
      std::fill(perm, perm + k, -1);
      for (int c = 0; c < k; ++c) {
        ASSERT_LT(info.position_of[c], k);
        EXPECT_EQ(perm[info.position_of[c]], -1);
        perm[info.position_of[c]] = c;
      }
      EXPECT_EQ(ApplyPermutation(mask, k, perm),
                catalog.Get(info.type).canonical_mask);
    }
  }
}

TEST(ClassifierTest, DegreeSignatureAloneIsAmbiguousForFiveNodes) {
  // Documents why we classify by full mask: at k = 5 there exist
  // non-isomorphic graphlets with identical sorted degree sequences (the
  // paper's cited degree-signature method needs extra care there).
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(5);
  std::map<std::array<int, 5>, int> signature_count;
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    std::array<int, 5> signature;
    for (int v = 0; v < 5; ++v) signature[v] = catalog.Get(id).degree[v];
    std::sort(signature.begin(), signature.end());
    signature_count[signature]++;
  }
  int collisions = 0;
  for (const auto& [sig, count] : signature_count) {
    if (count > 1) collisions += count;
  }
  EXPECT_GT(collisions, 0)
      << "expected at least one degree-sequence collision at k=5";
  // But no collisions exist at k = 3, 4 (why degree signatures suffice
  // there).
  for (int k = 3; k <= 4; ++k) {
    const GraphletCatalog& c = GraphletCatalog::ForSize(k);
    std::map<std::vector<int>, int> sigs;
    for (int id = 0; id < c.NumTypes(); ++id) {
      std::vector<int> s(c.Get(id).degree.begin(),
                         c.Get(id).degree.begin() + k);
      std::sort(s.begin(), s.end());
      sigs[s]++;
    }
    for (const auto& [sig, count] : sigs) EXPECT_EQ(count, 1) << "k=" << k;
  }
}

TEST(ClassifierTest, SpecificShapes) {
  const GraphletClassifier& classifier = GraphletClassifier::ForSize(4);
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(4);
  EXPECT_EQ(classifier.Type(MaskFromEdges(4, {{3, 1}, {1, 0}, {0, 2}})),
            catalog.IdByName("4-path"));
  EXPECT_EQ(classifier.Type(MaskFromEdges(4, {{2, 0}, {2, 1}, {2, 3}})),
            catalog.IdByName("3-star"));
  EXPECT_EQ(classifier.Type(
                MaskFromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})),
            catalog.IdByName("chordal-cycle"));
}

}  // namespace
}  // namespace grw
