// Fig. 9: inner- vs outer-loop parallelization for the U7-2 template
// on the Enron network: per-iteration time for inner; per-iteration
// and total time for outer (whole iterations run concurrently).
//
// Expected shape (paper): on a small graph, outer-loop parallelism
// wins (~6x vs ~2.5x at 16 cores) because per-vertex parallelism
// cannot amortize its overhead on few vertices.

#include <algorithm>
#include <string>

#include "core/counter.hpp"
#include "common.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig09_inner_vs_outer: Fig. 9 series");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("enron", 0.1);
  bench::banner("Fig. 9", "inner vs outer loop parallelization, U7-2",
                "enron-like, " + bench::describe_graph(g));

  const auto& tree = catalog_entry("U7-2").tree;
  const int iterations = 16;

  TablePrinter table({"Cores", "inner t/iter (s)", "outer t/iter (s)",
                      "outer total (s)", "2-copy total (s)",
                      "2-copy layout"});
  auto csv = ctx.csv({"cores", "inner_per_iter", "outer_per_iter",
                      "outer_total", "two_copy_total", "two_copy_layout"});

  for (int cores : {1, 2, 4, 8, 12, 16}) {
    CountOptions options;
    options.sampling.iterations = iterations;
    options.sampling.seed = ctx.seed;
    options.execution.threads = cores;

    options.execution.outer_copies = 1;
    const CountResult inner = count_template(g, tree, options);
    const double inner_per_iter =
        inner.seconds_total / static_cast<double>(iterations);

    options.execution.outer_copies = 0;
    const CountResult outer = count_template(g, tree, options);
    const double outer_per_iter =
        outer.seconds_total / static_cast<double>(iterations);

    // Two-copy series: the nested layout between the corners, two
    // outer copies of cores/2 inner threads each.
    options.execution.outer_copies = std::min(2, cores);
    const CountResult split = count_template(g, tree, options);
    const std::string layout =
        std::to_string(split.layout.outer_copies) + "x" +
        std::to_string(split.layout.inner_threads);

    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(cores)),
        TablePrinter::num(inner_per_iter, 4),
        TablePrinter::num(outer_per_iter, 4),
        TablePrinter::num(outer.seconds_total, 3),
        TablePrinter::num(split.seconds_total, 3), layout};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape (16-core node): outer-loop beats inner-loop on "
      "this small graph (~6x vs ~2.5x); the 2-copy layout sits between "
      "the corners.  Flat on a 1-core container.\n");
  return 0;
}
