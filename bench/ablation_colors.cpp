// Ablation: number of colors k vs estimate quality and table width.
//
// The paper fixes k = template size "for simplicity" (§III-A).  Color
// coding permits k > h: the colorful probability P rises (fewer wasted
// iterations; lower variance per iteration), but the table dimension
// C(k, h) and the split tables grow.  This ablation quantifies that
// trade so users can pick k deliberately.

#include <cmath>

#include "common.hpp"
#include "core/counter.hpp"
#include "exact/backtrack.hpp"
#include "treelet/catalog.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("ablation_colors: colors vs error/memory trade");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("hpylori", 1.0);
  bench::banner("Ablation: color count", "§III-A design choice (k = |T|)",
                "hpylori-like, " + bench::describe_graph(g));

  const auto& tree = catalog_entry("U5-2").tree;
  const double exact = exact::count_embeddings(g, tree);
  std::printf("U5-2 exact count: %.4e\n\n", exact);

  const int iterations = ctx.full ? 400 : 100;
  TablePrinter table({"colors k", "P(colorful)", "mean |err| @1 iter",
                      "err @all iters", "peak mem", "time/iter (ms)"});
  auto csv = ctx.csv({"k", "p_colorful", "mean_abs_err_1iter",
                      "err_final", "peak_bytes", "ms_per_iter"});

  for (int k : {5, 6, 7, 9, 12}) {
    CountOptions options;
    options.sampling.iterations = iterations;
    options.sampling.num_colors = k;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;
    const CountResult result = count_template(g, tree, options);

    // Mean absolute single-iteration error measures per-iteration
    // variance; the final running error measures the converged bias.
    std::vector<double> single_errors;
    for (double estimate : result.per_iteration) {
      single_errors.push_back(relative_error(estimate, exact));
    }
    const double final_error =
        relative_error(result.running_estimates().back(), exact);

    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(k)),
        TablePrinter::num(result.colorful_probability, 4),
        TablePrinter::num(mean(single_errors), 3),
        TablePrinter::num(final_error, 4),
        TablePrinter::bytes(result.peak_table_bytes),
        TablePrinter::num(1e3 * result.seconds_total / iterations, 2)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: raising k above |T| lifts P (0.038 -> ~0.5), "
      "shrinking per-iteration variance, while table memory and "
      "time/iteration grow with C(k,h); final error stays unbiased "
      "throughout.\n");
  return 0;
}
