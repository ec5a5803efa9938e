// Ablation (§III-C): table layout (naive / improved / hash) across two
// regimes — a dense contact network (low selectivity) and a sparse
// road network (high selectivity) — measuring time and peak memory.
//
// Expected shape: improved is the best all-rounder; hash wins memory
// on the road network's long paths but pays commit overhead; naive
// never wins.

#include "core/counter.hpp"
#include "common.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("ablation_tables: DP table layout ablation");
  if (!ctx.parse(argc, argv)) return 0;

  bench::banner("Ablation: table layout", "§III-C design discussion",
                "portland-like (dense) and road (sparse) regimes");

  TablePrinter table({"Network", "Template", "layout", "time/iter (s)",
                      "peak mem"});
  auto csv = ctx.csv({"network", "template", "layout", "seconds",
                      "peak_bytes"});

  struct Workload {
    const char* network;
    double default_scale;
    const char* tmpl;
  };
  const Workload workloads[] = {{"portland", 0.002, "U7-2"},
                                {"road", 0.01, "U7-1"},
                                {"road", 0.01, "U10-1"}};

  for (const Workload& work : workloads) {
    const Graph g = make_dataset(work.network,
                                 ctx.scale(work.default_scale), ctx.seed);
    const auto& entry = catalog_entry(work.tmpl);
    for (TableKind kind :
         {TableKind::kNaive, TableKind::kCompact, TableKind::kHash}) {
      CountOptions options;
      options.sampling.iterations = 1;
      options.execution.outer_copies = 1;
      options.execution.threads = ctx.threads;
      options.sampling.seed = ctx.seed;
      options.execution.table = kind;
      const CountResult result = count_template(g, entry.tree, options);
      std::vector<std::string> row = {
          work.network, entry.name, table_kind_name(kind),
          TablePrinter::num(result.seconds_per_iteration[0], 3),
          TablePrinter::bytes(result.peak_table_bytes)};
      csv.row(row);
      table.add_row(std::move(row));
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: improved dominates naive everywhere; hash "
      "minimizes memory in the sparse regime at some time cost.\n");
  return 0;
}
