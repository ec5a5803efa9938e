// §V-C comparison table: total time to count all 11 size-7 tree
// templates on the s420 electrical circuit network (n=252, m=399):
//   naive exhaustive search   (paper: 147 s)
//   MODA                      (paper:  32 s; here: pattern growth)
//   FASCIA, 1000 iterations   (paper:  22 s, ~1 % mean error)
//
// Expected shape: both enumeration baselines beat per-template naive
// search; FASCIA is fastest AND is the only one that scales beyond
// toy networks.  Absolute times differ from the paper's 2013 Windows
// workstation; the ordering should not.

#include "core/counter.hpp"
#include "common.hpp"
#include "exact/backtrack.hpp"
#include "exact/pattern_growth.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("tableC_comparison: naive vs MODA-like vs FASCIA");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("circuit", 1.0);
  bench::banner("Table (V-C)", "all 11 size-7 templates on the s420 circuit",
                bench::describe_graph(g));

  const auto trees = all_free_trees(7);
  const int iterations = ctx.full ? 1000 : 1000;  // paper setting is cheap

  // --- naive: independent exhaustive backtracking per template.
  WallTimer naive_timer;
  std::vector<double> exact_counts;
  for (const auto& tree : trees) {
    exact_counts.push_back(exact::count_embeddings(g, tree));
  }
  const double naive_seconds = naive_timer.elapsed_s();

  // --- MODA-like pattern growth: one enumeration counts all shapes.
  WallTimer growth_timer;
  const auto growth = exact::count_all_trees_by_growth(g, 7);
  const double growth_seconds = growth_timer.elapsed_s();

  // --- FASCIA.
  WallTimer fascia_timer;
  std::vector<double> estimates;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    CountOptions options;
    options.sampling.iterations = iterations;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed + 0x9e3779b9u * (i + 1);
    estimates.push_back(count_template(g, trees[i], options).estimate);
  }
  const double fascia_seconds = fascia_timer.elapsed_s();

  std::vector<double> errors;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    errors.push_back(relative_error(estimates[i], exact_counts[i]));
  }

  TablePrinter table({"Method", "total time (s)", "exact?", "mean error",
                      "paper time (s)"});
  auto csv = ctx.csv({"method", "seconds", "exact", "mean_error",
                      "paper_seconds"});
  auto emit = [&](const std::string& method, double seconds, bool exact_flag,
                  double error, const std::string& paper) {
    std::vector<std::string> row = {method, TablePrinter::num(seconds, 2),
                                    exact_flag ? "yes" : "no",
                                    exact_flag ? "0" :
                                        TablePrinter::num(error, 4),
                                    paper};
    csv.row(row);
    table.add_row(std::move(row));
  };
  emit("naive exhaustive", naive_seconds, true, 0.0, "147");
  emit("pattern growth (MODA-like)", growth_seconds, true, 0.0, "32");
  emit("FASCIA (" + std::to_string(iterations) + " iters)", fascia_seconds,
       false, mean(errors), "22");
  table.print();

  // Cross-check the two exact methods agree.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    max_diff = std::max(max_diff,
                        relative_error(growth.counts[i], exact_counts[i]));
  }
  std::printf("\nexact methods max disagreement: %g (must be 0)\n", max_diff);
  std::printf(
      "note: on this 252-vertex toy, modern exhaustive search is so fast "
      "that the paper's ordering (naive 147 s > MODA 32 s > FASCIA 22 s)\n"
      "compresses; the paper's real claim is the crossover below.\n");

  // --- crossover: a denser PPI-scale network, where enumeration cost
  // explodes (hub-degree^k) but color coding barely notices.
  std::printf("\n-- crossover on a denser network --\n");
  const Graph big = make_dataset("hpylori", ctx.full ? 0.6 : 0.3, ctx.seed);
  std::printf("hpylori-like, %s\n", bench::describe_graph(big).c_str());

  WallTimer big_growth_timer;
  const auto big_growth = exact::count_all_trees_by_growth(big, 7);
  const double big_growth_seconds = big_growth_timer.elapsed_s();

  WallTimer big_fascia_timer;
  std::vector<double> big_errors;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    CountOptions options;
    options.sampling.iterations = iterations;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed + 0x9e3779b9u * (i + 1);
    const double estimate = count_template(big, trees[i], options).estimate;
    big_errors.push_back(relative_error(estimate, big_growth.counts[i]));
  }
  const double big_fascia_seconds = big_fascia_timer.elapsed_s();

  TablePrinter crossover({"Method", "total time (s)", "mean error"});
  crossover.add_row({"pattern growth (MODA-like)",
                     TablePrinter::num(big_growth_seconds, 2), "0"});
  crossover.add_row({"naive exhaustive", "(worse: alpha x growth)", "0"});
  crossover.add_row({"FASCIA (" + std::to_string(iterations) + " iters)",
                     TablePrinter::num(big_fascia_seconds, 2),
                     TablePrinter::num(mean(big_errors), 4)});
  crossover.print();
  std::printf(
      "\nexpected shape: enumeration cost explodes with density/hubs "
      "while FASCIA stays cheap at ~1%% error — the paper's §V-C claim "
      "('MODA is unable to scale to much larger networks').\n");
  return 0;
}
