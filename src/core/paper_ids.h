// Mapping between this library's catalog ids and the paper's graphlet
// numbering (g^3_1..g^3_2, g^4_1..g^4_6 from Figure 2, and the 21 5-node
// IDs of Table 3).
//
// For k = 3, 4 the paper's order is fixed by Figure 2's named pictures,
// which our catalog reproduces by name. For k = 5 the pictures are not
// available in text form, but Table 3's (alpha under SRW1, alpha under
// SRW2) column pairs are pairwise distinct, so the assignment is recovered
// by computing alpha with Algorithm 2 for every catalog graphlet and
// matching the pairs. (Rows SRW3/SRW4 of the printed table are then
// *checked* rather than matched: the five SRW4 entries printed as 12
// contradict the paper's own Appendix B formula alpha = |S|(|S|-1) <= 20,
// and are reported as known errata by the Table 3 bench — see
// EXPERIMENTS.md.)

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace grw {

/// paper_pos (0-based: paper id i corresponds to index i-1) -> catalog id,
/// for k in 3..6. The paper numbers no 6-node graphlets: k = 6 is
/// catalog order.
const std::vector<int>& PaperOrder(int k);

/// Paper label for a 0-based paper position, e.g. "g31", "g46", "g5_17",
/// "g6_112".
std::string PaperLabel(int k, int paper_pos);

/// The alpha^k_i / 2 values printed in paper Tables 2 and 3, indexed
/// [d-1][paper_pos]. k = 3 has rows d = 1..2, k = 4 rows d = 1..3,
/// k = 5 rows d = 1..4 (as printed, including the SRW4 errata).
const std::vector<std::vector<int64_t>>& PaperAlphaHalfTable(int k);

}  // namespace grw
