// Fig. 3: single-iteration execution time for the 10 unlabeled
// templates U3-1 ... U12-2 on the Portland network.
//
// Expected shape (paper): time grows ~2^k with template size; roughly
// template-structure independent below k=10; U12-2 the slowest (it
// stresses partitioning), within ~2x of U12-1.

#include "core/counter.hpp"
#include "core/triangle.hpp"
#include "common.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig03_unlabeled_times: Fig. 3 series");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("portland", 0.004);
  bench::banner("Fig. 3", "single-iteration time, 10 unlabeled templates",
                "portland-like contact network, " + bench::describe_graph(g));

  TablePrinter table({"Template", "k", "time/iter (s)", "estimate",
                      "subtemplates", "DP cost"});
  auto csv = ctx.csv({"template", "k", "seconds", "estimate",
                      "subtemplates", "dp_cost"});

  for (const auto& entry : template_catalog()) {
    CountOptions options;
    options.sampling.iterations = 1;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;

    double seconds = 0.0, estimate = 0.0, cost = 0.0;
    int subtemplates = 0;
    if (entry.is_triangle) {
      const CountResult result = count_triangles(g, options);
      seconds = result.seconds_per_iteration[0];
      estimate = result.estimate;
      subtemplates = 1;
    } else {
      const CountResult result = count_template(g, entry.tree, options);
      seconds = result.seconds_per_iteration[0];
      estimate = result.estimate;
      cost = result.dp_cost;
      subtemplates = result.num_subtemplates;
    }
    std::vector<std::string> row = {
        entry.name, TablePrinter::num(static_cast<long long>(entry.size)),
        TablePrinter::num(seconds, 3), TablePrinter::sci(estimate, 3),
        TablePrinter::num(static_cast<long long>(subtemplates)),
        TablePrinter::sci(cost, 2)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: time ~2^k in template size; U12-2 slowest "
      "(designed to stress partitioning), within ~2x of U12-1.\n");
  return 0;
}
