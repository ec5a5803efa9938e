// Fig. 7: peak dynamic-table memory on the PA road network with the
// path templates U3-1 ... U12-1, comparing naive, improved, and hash
// layouts.
//
// Expected shape (paper): improved saves ~2-7 % over naive; the hash
// table saves up to ~90 % at U12-1 because long paths are highly
// selective on a low-degree road network; little to no gain at k<=5.

#include "core/counter.hpp"
#include "common.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig07_memory_road: Fig. 7 series");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("road", 0.02);
  bench::banner("Fig. 7", "peak DP-table memory: naive vs improved vs hash",
                "grid road network, " + bench::describe_graph(g));

  TablePrinter table({"Template", "naive", "improved", "hash",
                      "hash/naive"});
  auto csv = ctx.csv({"template", "naive_bytes", "improved_bytes",
                      "hash_bytes", "hash_ratio"});

  for (const char* name : {"U3-1", "U5-1", "U7-1", "U10-1", "U12-1"}) {
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
    options.execution.table = TableKind::kHash;
    const auto hash = count_template(g, entry.tree, options);

    std::vector<std::string> row = {
        entry.name, TablePrinter::bytes(naive.peak_table_bytes),
        TablePrinter::bytes(improved.peak_table_bytes),
        TablePrinter::bytes(hash.peak_table_bytes),
        TablePrinter::num(static_cast<double>(hash.peak_table_bytes) /
                              static_cast<double>(naive.peak_table_bytes),
                          2)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: hash << naive for the long paths (paper: up to "
      "90%% at U12-1); minimal gain for k <= 5.\n");
  return 0;
}
