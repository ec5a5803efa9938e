// Fig. 11: mean approximation error across all 11 size-7 tree
// templates on the H. pylori network, vs iteration count
// (1, 10, 100, 1000, 10000).
//
// Expected shape (paper): error larger than on Enron (smaller graph =>
// noisier coloring), falling well below 1 % by 1000 iterations.

#include "core/counter.hpp"
#include "common.hpp"
#include "exact/pattern_growth.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig11_error_motifs: Fig. 11 series");
  if (!ctx.parse(argc, argv)) return 0;

  // Exact enumeration cost explodes with the hub degrees (the paper's
  // exact pass took hours); ~25% scale keeps it to seconds on one core.
  // --full raises it to ~60% (minutes) and 10k iterations — true paper
  // scale exact counting is the multi-hour baseline FASCIA replaces.
  const Graph g =
      make_dataset("hpylori", ctx.full ? 0.6 : ctx.scale(0.25), ctx.seed);
  bench::banner("Fig. 11", "mean motif error vs iterations, 11 size-7 trees",
                "hpylori-like, " + bench::describe_graph(g));

  WallTimer exact_timer;
  const auto exact = exact::count_all_trees_by_growth(g, 7);
  std::printf("exact counts via pattern growth: %.2f s (%0.f subtrees)\n\n",
              exact_timer.elapsed_s(), exact.subtrees_visited);

  const int max_iterations = ctx.full ? 10000 : 1000;
  std::vector<int> checkpoints = {1, 10, 100, 1000};
  if (ctx.full) checkpoints.push_back(10000);

  // One long run per template; running means give every checkpoint.
  const auto trees = all_free_trees(7);
  std::vector<std::vector<double>> running_errors(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    CountOptions options;
    options.sampling.iterations = max_iterations;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed + 0x9e3779b9u * (i + 1);
    const CountResult result = count_template(g, trees[i], options);
    const auto running = result.running_estimates();
    for (int checkpoint : checkpoints) {
      running_errors[i].push_back(relative_error(
          running[static_cast<std::size_t>(checkpoint - 1)],
          exact.counts[i]));
    }
  }

  TablePrinter table({"Iterations", "mean error", "max error"});
  auto csv = ctx.csv({"iterations", "mean_error", "max_error"});
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    std::vector<double> at_checkpoint;
    for (const auto& series : running_errors) at_checkpoint.push_back(series[c]);
    double max_error = 0.0;
    for (double e : at_checkpoint) max_error = std::max(max_error, e);
    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(checkpoints[c])),
        TablePrinter::num(mean(at_checkpoint), 5),
        TablePrinter::num(max_error, 5)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: mean error falls well below 1%% by 1000 "
      "iterations (paper Fig. 11); noisier than Enron (smaller graph).\n");
  return 0;
}
