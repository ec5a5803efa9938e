// Fig. 10: approximation error vs iteration count (1..10) for the
// U3-1 and U5-1 templates on the Enron network, against exact counts.
//
// Expected shape (paper): error falls below 1 % within ~3 iterations
// on a graph of this size; U5-1 noisier than U3-1.

#include "core/counter.hpp"
#include "common.hpp"
#include "exact/backtrack.hpp"
#include "treelet/catalog.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig10_error_enron: Fig. 10 series");
  if (!ctx.parse(argc, argv)) return 0;

  // Exact P5 counting is the paper's "5 hours of processing" step; at
  // container scale we shrink the network so it takes seconds.
  const Graph g = ctx.dataset("enron", 0.05);
  bench::banner("Fig. 10", "approximation error vs iterations, U3-1/U5-1",
                "enron-like, " + bench::describe_graph(g));

  TablePrinter table({"Iterations", "U3-1 error", "U5-1 error"});
  auto csv = ctx.csv({"iterations", "u31_error", "u51_error"});

  std::vector<std::vector<double>> errors;
  for (const char* name : {"U3-1", "U5-1"}) {
    const auto& tree = catalog_entry(name).tree;
    WallTimer exact_timer;
    const double exact = exact::count_embeddings(g, tree);
    std::printf("%s exact count: %.6e  (computed in %.2f s)\n", name, exact,
                exact_timer.elapsed_s());

    CountOptions options;
    options.sampling.iterations = 10;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;
    const CountResult result = count_template(g, tree, options);
    const auto running = result.running_estimates();
    std::vector<double> series;
    for (double estimate : running) {
      series.push_back(relative_error(estimate, exact));
    }
    errors.push_back(std::move(series));
  }
  std::printf("\n");

  for (int iteration = 1; iteration <= 10; ++iteration) {
    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(iteration)),
        TablePrinter::num(errors[0][static_cast<std::size_t>(iteration - 1)], 5),
        TablePrinter::num(errors[1][static_cast<std::size_t>(iteration - 1)], 5)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: error < 1%% after ~3 iterations (paper Fig. 10); "
      "single-template iterations cost milliseconds vs hours for exact.\n");
  return 0;
}
