#include "core/alpha.h"

#include <bit>
#include <cassert>

#include "core/css.h"

namespace grw {

namespace {

// All connected induced d-node subgraphs of g, as vertex bitmasks.
std::vector<uint16_t> ConnectedSubsets(const Graphlet& g, int d) {
  std::vector<uint16_t> subsets;
  const uint16_t full = static_cast<uint16_t>((1u << g.k) - 1);
  for (uint16_t set = 1; set <= full; ++set) {
    if (std::popcount(set) != d) continue;
    // Connectivity of the induced subgraph on `set` under g's edges.
    uint16_t visited = static_cast<uint16_t>(set & (~set + 1));  // lowest bit
    uint16_t frontier = visited;
    while (frontier != 0) {
      uint16_t next = 0;
      for (int i = 0; i < g.k; ++i) {
        if (!((frontier >> i) & 1u)) continue;
        for (int j = 0; j < g.k; ++j) {
          if (((set >> j) & 1u) && !((visited >> j) & 1u) &&
              MaskHasEdge(g.canonical_mask, g.k, i, j)) {
            next |= static_cast<uint16_t>(1u << j);
          }
        }
      }
      visited |= next;
      frontier = next;
    }
    if (visited == set) subsets.push_back(set);
  }
  return subsets;
}

// Adjacency in the relationship graph of g: an edge of g for d = 1,
// sharing exactly d-1 vertices for d >= 2.
bool StatesAdjacent(const Graphlet& g, int d, uint16_t a, uint16_t b) {
  if (a == b) return false;
  if (d == 1) {
    const int i = std::countr_zero(a);
    const int j = std::countr_zero(b);
    return MaskHasEdge(g.canonical_mask, g.k, i, j);
  }
  return std::popcount(static_cast<uint16_t>(a & b)) == d - 1;
}

void Extend(const Graphlet& g, int d, int l,
            const std::vector<uint16_t>& subsets, StateSequence* seq,
            uint16_t covered, std::vector<StateSequence>* out) {
  if (static_cast<int>(seq->size()) == l) {
    assert(std::popcount(covered) == g.k);
    out->push_back(*seq);
    return;
  }
  const uint16_t last = seq->back();
  for (uint16_t s : subsets) {
    if (!StatesAdjacent(g, d, last, s)) continue;
    // Each transition must add exactly one new node (otherwise the window
    // cannot cover k nodes in l states).
    const uint16_t grown = static_cast<uint16_t>(covered | s);
    if (std::popcount(grown) != std::popcount(covered) + 1) continue;
    seq->push_back(s);
    Extend(g, d, l, subsets, seq, grown, out);
    seq->pop_back();
  }
}

}  // namespace

std::vector<StateSequence> CorrespondingSequences(const Graphlet& g, int d) {
  assert(d >= 1 && d < g.k);
  const int l = g.k - d + 1;
  const std::vector<uint16_t> subsets = ConnectedSubsets(g, d);
  std::vector<StateSequence> out;
  StateSequence seq;
  for (uint16_t s : subsets) {
    seq.assign(1, s);
    Extend(g, d, l, subsets, &seq, s, &out);
  }
  return out;
}

int64_t Alpha(const Graphlet& g, int d) {
  return static_cast<int64_t>(CorrespondingSequences(g, d).size());
}

std::vector<int64_t> AlphaTable(int k, int d) {
  return CssTable::For(k, d).alpha();
}

}  // namespace grw
