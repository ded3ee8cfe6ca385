// State corresponding coefficients alpha^k_i (paper Definition 3 /
// Algorithm 2) and the underlying corresponding-state sequence enumeration.
//
// For a k-node graphlet g and walk dimension d, a *corresponding state
// sequence* is an ordered tuple of l = k-d+1 connected induced d-node
// subgraphs of g that (a) forms a walk in the relationship graph of g
// (consecutive states adjacent: an edge of g for d = 1, sharing exactly
// d-1 nodes for d >= 2) and (b) covers all k nodes — equivalently, each
// transition introduces exactly one new node. alpha^k_i is the number of
// such sequences; it is the replication factor of each subgraph isomorphic
// to g^k_i in the expanded Markov chain's state space, and divides the
// estimator's re-weighting term (Eq. 4).
//
// The same enumeration drives the CSS sampling probability (core/css.h):
// CSS groups the sequences by their interior states instead of merely
// counting them; its table records alpha, which AlphaTable reads.

#pragma once

#include <cstdint>
#include <vector>

#include "graphlet/catalog.h"

namespace grw {

/// One corresponding state sequence: states[t] is the vertex set of the
/// t-th d-node state, as a bitmask over the graphlet's canonical labels.
using StateSequence = std::vector<uint16_t>;

/// Enumerates all corresponding state sequences of graphlet g under a walk
/// on G(d). Requires 1 <= d < g.k.
std::vector<StateSequence> CorrespondingSequences(const Graphlet& g, int d);

/// alpha^k_i = |CorrespondingSequences(g, d)|. Zero means the walk on G(d)
/// can never produce a sample of this graphlet (e.g. the 3-star under
/// SRW1, Table 2).
int64_t Alpha(const Graphlet& g, int d);

/// Alpha for every graphlet of size k, indexed by catalog id: a copy of
/// CssTable::For(k, d).alpha() (3 <= k).
std::vector<int64_t> AlphaTable(int k, int d);

}  // namespace grw
