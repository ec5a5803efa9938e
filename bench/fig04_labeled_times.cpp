// Fig. 4: single-iteration execution time for the 10 templates with
// vertex labels (2 genders x 4 age groups = 8 labels) on Portland.
//
// Expected shape (paper): labeled counting is orders of magnitude
// faster than unlabeled (Fig. 3) because labels prune the search
// space; all 10 templates complete in well under a second at paper
// scale.

#include "core/counter.hpp"
#include "core/triangle.hpp"
#include "common.hpp"
#include "graph/labels.hpp"
#include "treelet/catalog.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig04_labeled_times: Fig. 4 series");
  if (!ctx.parse(argc, argv)) return 0;

  Graph g = ctx.dataset("portland", 0.004);
  assign_demographic_labels(g, ctx.seed + 1);
  bench::banner("Fig. 4", "single-iteration time, labeled templates",
                "portland-like with 8 demographic labels, " +
                    bench::describe_graph(g));

  TablePrinter table({"Template", "k", "time/iter (s)", "estimate",
                      "unlabeled time (s)", "speedup"});
  auto csv = ctx.csv({"template", "k", "seconds", "estimate",
                      "unlabeled_seconds", "speedup"});

  Xoshiro256 label_rng(ctx.seed + 2);
  for (const auto& entry : template_catalog()) {
    CountOptions options;
    options.sampling.iterations = 1;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;

    // Random template labels, as in the paper ("we assume
    // randomly-assigned labels", §V-A).
    std::vector<std::uint8_t> labels(static_cast<std::size_t>(entry.size));
    for (auto& value : labels) {
      value = static_cast<std::uint8_t>(label_rng.bounded(8));
    }

    double labeled_seconds = 0.0, estimate = 0.0;
    if (entry.is_triangle) {
      const CountResult result = count_triangles(
          g, options, {labels[0], labels[1], labels[2]});
      labeled_seconds = result.seconds_per_iteration[0];
      estimate = result.estimate;
    } else {
      TreeTemplate labeled_tree = entry.tree;
      labeled_tree.set_labels(labels);
      const CountResult result = count_template(g, labeled_tree, options);
      labeled_seconds = result.seconds_per_iteration[0];
      estimate = result.estimate;
    }

    // Unlabeled reference for the speedup column.
    Graph unlabeled_graph = g;
    unlabeled_graph.clear_labels();
    double unlabeled_seconds = 0.0;
    if (entry.is_triangle) {
      unlabeled_seconds =
          count_triangles(unlabeled_graph, options).seconds_per_iteration[0];
    } else {
      unlabeled_seconds =
          count_template(unlabeled_graph, entry.tree, options)
              .seconds_per_iteration[0];
    }

    std::vector<std::string> row = {
        entry.name, TablePrinter::num(static_cast<long long>(entry.size)),
        TablePrinter::num(labeled_seconds, 4),
        TablePrinter::sci(estimate, 3),
        TablePrinter::num(unlabeled_seconds, 4),
        TablePrinter::num(
            labeled_seconds > 0 ? unlabeled_seconds / labeled_seconds : 0.0,
            1)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: labeled runs are far faster than unlabeled "
      "(labels prune the embedding space), increasingly so for large k.\n");
  return 0;
}
