// Fig. 12: motif counts on H. pylori for all 11 size-7 trees — exact
// vs color-coding estimates after 1 iteration and after 1000
// iterations.
//
// Expected shape (paper): even a single iteration reproduces the
// relative magnitudes; 1000 iterations overlay the exact bars while
// costing seconds instead of hours.

#include "core/counter.hpp"
#include "common.hpp"
#include "exact/pattern_growth.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig12_motif_counts: Fig. 12 series");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g =
      make_dataset("hpylori", ctx.full ? 0.6 : ctx.scale(0.25), ctx.seed);
  bench::banner("Fig. 12", "exact vs 1-iter vs 1000-iter counts, size-7 trees",
                "hpylori-like, " + bench::describe_graph(g));

  WallTimer exact_timer;
  const auto exact = exact::count_all_trees_by_growth(g, 7);
  const double exact_seconds = exact_timer.elapsed_s();

  const auto trees = all_free_trees(7);
  TablePrinter table({"Tree", "exact", "1 iter", "1000 iters",
                      "err@1", "err@1000"});
  auto csv = ctx.csv({"tree", "exact", "est_1", "est_1000", "err_1",
                      "err_1000"});

  WallTimer approx_timer;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    CountOptions options;
    options.sampling.iterations = 1000;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed + 0x9e3779b9u * (i + 1);
    const CountResult result = count_template(g, trees[i], options);
    const auto running = result.running_estimates();
    const double after_one = running.front();
    const double after_all = running.back();
    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(i + 1)),
        TablePrinter::sci(exact.counts[i], 3),
        TablePrinter::sci(after_one, 3), TablePrinter::sci(after_all, 3),
        TablePrinter::num(relative_error(after_one, exact.counts[i]), 3),
        TablePrinter::num(relative_error(after_all, exact.counts[i]), 4)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  const double approx_seconds = approx_timer.elapsed_s();
  table.print();
  std::printf(
      "\nexact: %.2f s; 11 x 1000 color-coding iterations: %.2f s.\n"
      "expected shape: relative magnitudes right after 1 iteration; "
      "1000 iterations overlay the exact counts (paper Fig. 12).\n",
      exact_seconds, approx_seconds);
  return 0;
}
