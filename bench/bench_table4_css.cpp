// Regenerates paper Table 4: the CSS sampling probabilities p(X^(l)) for
// all 3-node graphlets under SRW1 and 4-node graphlets under SRW2, as the
// compiled interior-coefficient expansions (core/css.h). The published
// closed forms are symbolic; we print our compiled coefficient patterns in
// the same shape so they can be compared term by term, and numerically
// verify two of the published rows (wedge and triangle) on a concrete
// graph.

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/css.h"
#include "core/paper_ids.h"
#include "graph/generators.h"
#include "graphlet/catalog.h"
#include "graphlet/classifier.h"
#include "util/flags.h"
#include "util/table.h"
#include "walk/subgraph_walk.h"

namespace {

// Renders one compiled entry list as "sum_j count/deg(states)".
std::string RenderEntries(const std::vector<grw::CssEntry>& entries, int k) {
  std::string out;
  for (const grw::CssEntry& entry : entries) {
    if (!out.empty()) out += " + ";
    out += std::to_string(entry.count);
    for (int t = 0; t < entry.num_interior; ++t) {
      out += "/d{";
      bool first = true;
      for (int c = 0; c < k; ++c) {
        if ((entry.interior[t] >> c) & 1u) {
          out += (first ? "" : ",") + std::to_string(c + 1);
          first = false;
        }
      }
      out += "}";
    }
  }
  return out.empty() ? "1 (no interior states)" : out;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);

  grw::Table table(
      "Table 4: compiled sampling probabilities 2|R(d)| p(X^(l)) "
      "(d{a,b} = degree of the state on canonical vertices a,b)");
  table.SetHeader({"Graphlet", "SRW(d)", "2|R(d)| p(X) ="});

  const auto& order3 = grw::PaperOrder(3);
  const grw::CssTable& css31 = grw::CssTable::For(3, 1);
  for (int pos = 0; pos < 2; ++pos) {
    table.AddRow({grw::PaperLabel(3, pos), "SRW(1)",
                  RenderEntries(css31.Entries(order3[pos]), 3)});
  }
  const auto& order4 = grw::PaperOrder(4);
  const grw::CssTable& css42 = grw::CssTable::For(4, 2);
  for (int pos = 0; pos < 6; ++pos) {
    table.AddRow({grw::PaperLabel(4, pos), "SRW(2)",
                  RenderEntries(css42.Entries(order4[pos]), 4)});
  }
  table.Print();

  // Numeric spot-checks of the published closed forms on K5: every node
  // degree is 4, every G(2) state degree is 6. The table itself is
  // symbolic, so the JSON mirror carries the spot-check values instead.
  std::vector<grw::bench::JsonMetric> metrics;
  const grw::Graph k5 = grw::Complete(5);
  grw::GdScratch scratch;
  {
    // g32 = triangle, SRW1: published 2|R| p / 2 = 1/d1 + 1/d2 + 1/d3.
    uint32_t mask = grw::MaskFromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
    const auto& info = grw::GraphletClassifier::ForSize(3).Info(mask);
    const grw::VertexId nodes[3] = {0, 1, 2};
    const double got = css31.Eval(info, {nodes, 3}, k5, false, scratch);
    const double want = 2.0 * 3.0 / 4.0;
    const bool ok = std::abs(got - want) < 1e-9;
    std::printf("check triangle/SRW1 on K5: %.6f (closed form %.6f) %s\n",
                got, want, ok ? "OK" : "MISMATCH");
    metrics.push_back({"triangle_srw1_k5", got, "p"});
    metrics.push_back({"triangle_srw1_k5_expected", want, "p"});
    if (!ok) return 1;
  }
  {
    // g46 = 4-clique, SRW2: published 4 * sum over 6 edges of 1/d_e.
    uint32_t mask = 0;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) mask = grw::MaskWithEdge(mask, 4, i, j);
    }
    const auto& info = grw::GraphletClassifier::ForSize(4).Info(mask);
    const grw::VertexId nodes[4] = {0, 1, 2, 3};
    const double got = css42.Eval(info, {nodes, 4}, k5, false, scratch);
    const double want = 2.0 * 4.0 * 6.0 / 6.0;
    const bool ok = std::abs(got - want) < 1e-9;
    std::printf("check 4-clique/SRW2 on K5: %.6f (closed form %.6f) %s\n",
                got, want, ok ? "OK" : "MISMATCH");
    metrics.push_back({"clique4_srw2_k5", got, "p"});
    metrics.push_back({"clique4_srw2_k5_expected", want, "p"});
    if (!ok) return 1;
  }

  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty() && table.WriteCsv(csv)) {
    std::printf("csv written to %s\n", csv.c_str());
  }
  grw::bench::MaybeWriteJson(flags, "bench_table4_css",
                             "compiled CSS probabilities, spot-checked on K5",
                             metrics);
  return 0;
}
