// Fig. 6: peak dynamic-table memory on the Portland network with the
// U3-2*, U5-2, U7-2, U10-2, U12-2 templates, comparing the naive
// layout (all storage initialized), the improved layout (rows
// allocated on demand), and the improved layout on a labeled instance.
//
// *U3-2 is the triangle and uses no DP table; following the paper's
// figure we run the tree "-2" templates (5..12) and report U5-2 up.
//
// Expected shape (paper): improved saves ~20 % unlabeled and >90 %
// labeled; savings grow with template size.

#include "core/counter.hpp"
#include "common.hpp"
#include "graph/labels.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig06_memory_portland: Fig. 6 series");
  if (!ctx.parse(argc, argv)) return 0;

  Graph g = ctx.dataset("portland", 0.004);
  Graph labeled = g;
  assign_demographic_labels(labeled, ctx.seed + 1);
  bench::banner("Fig. 6", "peak DP-table memory: naive vs improved vs labeled",
                "portland-like, " + bench::describe_graph(g));

  TablePrinter table({"Template", "naive", "improved", "labeled",
                      "improved/naive", "labeled/naive"});
  auto csv = ctx.csv({"template", "naive_bytes", "improved_bytes",
                      "labeled_bytes", "improved_ratio", "labeled_ratio"});

  for (const char* name : {"U5-2", "U7-2", "U10-2", "U12-2"}) {
    const auto& entry = catalog_entry(name);
    CountOptions options;
    options.sampling.iterations = 1;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;

    options.execution.table = TableKind::kNaive;
    const auto naive = count_template(g, entry.tree, options);

    options.execution.table = TableKind::kCompact;
    const auto improved = count_template(g, entry.tree, options);

    TreeTemplate labeled_tree = entry.tree;
    std::vector<std::uint8_t> labels(static_cast<std::size_t>(entry.size));
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::uint8_t>(i % 8);
    }
    labeled_tree.set_labels(labels);
    const auto with_labels = count_template(labeled, labeled_tree, options);

    std::vector<std::string> row = {
        entry.name, TablePrinter::bytes(naive.peak_table_bytes),
        TablePrinter::bytes(improved.peak_table_bytes),
        TablePrinter::bytes(with_labels.peak_table_bytes),
        TablePrinter::num(static_cast<double>(improved.peak_table_bytes) /
                              static_cast<double>(naive.peak_table_bytes),
                          2),
        TablePrinter::num(static_cast<double>(with_labels.peak_table_bytes) /
                              static_cast<double>(naive.peak_table_bytes),
                          2)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: improved < naive (paper: ~20%% saving), labeled "
      "<< naive (paper: >90%% saving), gap widening with k.\n");
  return 0;
}
