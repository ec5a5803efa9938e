// Extension demo: "tree-like graph templates with triangles" (§I).
//
// The paper states FASCIA "can also handle tree-like graphs templates
// with triangles" without evaluating them; this bench supplies that
// evaluation: four triangle-bearing templates counted on a PPI-like
// network, estimates vs exact backtracking, plus timing.

#include "common.hpp"
#include "core/mixed_counter.hpp"
#include "exact/backtrack.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("ext_triangles: triangle-block template extension");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("celegans", 1.0);
  bench::banner("Extension: triangle templates",
                "§I claim: 'tree-like graph templates with triangles'",
                "celegans-like, " + bench::describe_graph(g));

  struct Entry {
    const char* name;
    MixedTemplate tmpl;
  };
  const Entry templates[] = {
      {"triangle", MixedTemplate::triangle()},
      {"paw (triangle+tail)",
       MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}})},
      {"bull (triangle+2 horns)",
       MixedTemplate::from_edges(5,
                                 {{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}})},
      {"tailed triangle (tail of 2)",
       MixedTemplate::from_edges(5,
                                 {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})},
      {"bowtie (2 triangles)",
       MixedTemplate::from_edges(
           5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})},
  };

  const int iterations = ctx.full ? 1000 : 400;
  TablePrinter table({"Template", "alpha", "exact", "estimate", "error",
                      "est time (s)", "exact time (s)"});
  auto csv = ctx.csv({"template", "alpha", "exact", "estimate", "error",
                      "estimate_seconds", "exact_seconds"});

  for (const Entry& entry : templates) {
    WallTimer exact_timer;
    const double exact = exact::count_embeddings(g, entry.tmpl);
    const double exact_seconds = exact_timer.elapsed_s();

    CountOptions options;
    options.sampling.iterations = iterations;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;
    WallTimer estimate_timer;
    const CountResult result = count_mixed_template(g, entry.tmpl, options);
    const double estimate_seconds = estimate_timer.elapsed_s();

    std::vector<std::string> row = {
        entry.name,
        TablePrinter::num(static_cast<long long>(result.automorphisms)),
        TablePrinter::sci(exact, 3), TablePrinter::sci(result.estimate, 3),
        TablePrinter::num(relative_error(result.estimate, exact), 4),
        TablePrinter::num(estimate_seconds, 2),
        TablePrinter::num(exact_seconds, 2)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: estimates within a few %% of exact at %d "
      "iterations; the triangle-join DP extends color coding beyond "
      "trees exactly as §I promises.\n",
      iterations);
  return 0;
}
