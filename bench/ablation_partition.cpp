// Ablation (§III-D): one-at-a-time vs balanced partitioning, with and
// without rooted-automorphism table sharing, on the structured
// templates.  Reports DP cost model, measured time, and peak memory.
//
// Expected shape (paper): the cost-model sum favors balanced cuts, yet
// one-at-a-time *runs* faster thanks to the single-active-child fast
// path; symmetry sharing trades a little time for memory.

#include "core/counter.hpp"
#include "common.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("ablation_partition: partitioning strategy ablation");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("portland", 0.002);
  bench::banner("Ablation: partitioning", "§III-D design discussion",
                "portland-like, " + bench::describe_graph(g));

  TablePrinter table({"Template", "strategy", "share", "DP cost",
                      "time/iter (s)", "peak mem", "subtemplates",
                      "max live"});
  auto csv = ctx.csv({"template", "strategy", "share", "dp_cost", "seconds",
                      "peak_bytes", "subtemplates", "max_live"});

  for (const char* name : {"U7-2", "U10-2", "U12-1", "U12-2"}) {
    const auto& entry = catalog_entry(name);
    for (auto strategy : {PartitionStrategy::kOneAtATime,
                          PartitionStrategy::kBalanced}) {
      for (bool share : {true, false}) {
        CountOptions options;
        options.sampling.iterations = 1;
        options.execution.outer_copies = 1;
        options.execution.threads = ctx.threads;
        options.sampling.seed = ctx.seed;
        options.execution.partition = strategy;
        options.execution.share_tables = share;
        const CountResult result = count_template(g, entry.tree, options);
        std::vector<std::string> row = {
            entry.name,
            strategy == PartitionStrategy::kOneAtATime ? "one-at-a-time"
                                                       : "balanced",
            share ? "yes" : "no",
            TablePrinter::sci(result.dp_cost, 2),
            TablePrinter::num(result.seconds_per_iteration[0], 3),
            TablePrinter::bytes(result.peak_table_bytes),
            TablePrinter::num(static_cast<long long>(result.num_subtemplates)),
            TablePrinter::num(static_cast<long long>(result.max_live_tables))};
        csv.row(row);
        table.add_row(std::move(row));
      }
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: for path-like templates one-at-a-time matches or "
      "beats balanced thanks to the single-active fast path (the paper's "
      "§III-D claim); on our hub-heavy U12-2 reconstruction the balanced "
      "cut wins — the cost-model sum and the measured time disagree "
      "exactly as §III-D discusses.  Sharing cuts subtemplate count (and "
      "peak memory on unshared-balanced) on symmetric templates.\n");
  return 0;
}
