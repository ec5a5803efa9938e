// Fig. 16: GDD agreement (Pržulj) between the exact and estimated
// graphlet degree distributions of the U5-2 central orbit, on E. coli
// and Enron, after 1 / 10 / 100 / 1000 iterations.
//
// Expected shape (paper): agreement rises with iterations, reaching
// "reasonable" (~0.9+) values around 1000 iterations on both networks.

#include "analytics/gdd.hpp"
#include "core/counter.hpp"
#include "common.hpp"
#include "exact/backtrack.hpp"
#include "treelet/catalog.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig16_gdd_agreement: Fig. 16 series");
  if (!ctx.parse(argc, argv)) return 0;

  bench::banner("Fig. 16", "GDD agreement vs iterations, E. coli & Enron",
                "exact per-vertex counts vs color-coding estimates");

  const auto& tree = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();
  const std::vector<int> checkpoints = {1, 10, 100, 1000};

  struct Net {
    const char* name;
    double default_scale;
  };
  const Net networks[] = {{"ecoli", 0.6}, {"enron", 0.04}};

  TablePrinter table({"Iterations", "E.coli agreement", "Enron agreement"});
  auto csv = ctx.csv({"iterations", "ecoli", "enron"});
  std::vector<std::vector<double>> agreement_series;

  for (const Net& net : networks) {
    const Graph g = make_dataset(net.name,
                                 ctx.full ? 1.0 : ctx.scale(net.default_scale),
                                 ctx.seed);
    std::printf("%s: %s\n", dataset_spec(net.name).paper_name.c_str(),
                bench::describe_graph(g).c_str());
    WallTimer exact_timer;
    const auto exact_degrees = exact::per_vertex_counts(g, tree, orbit);
    std::printf("  exact per-vertex counts: %.2f s\n", exact_timer.elapsed_s());

    // One engine pass per checkpoint (cheap: checkpoints <= 1000 total
    // iterations; reuse running accumulation by running the largest and
    // re-running smaller ones keeps the code simple and costs < 2x).
    std::vector<double> agreements;
    for (int iterations : checkpoints) {
      CountOptions options;
      options.sampling.iterations = iterations;
      options.execution.outer_copies = 1;
      options.execution.threads = ctx.threads;
      options.sampling.seed = ctx.seed;
      const auto estimated =
          graphlet_degrees(g, tree, orbit, options).vertex_counts;
      agreements.push_back(
          analytics::gdd_agreement(estimated, exact_degrees));
    }
    agreement_series.push_back(std::move(agreements));
  }
  std::printf("\n");

  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(checkpoints[c])),
        TablePrinter::num(agreement_series[0][c], 4),
        TablePrinter::num(agreement_series[1][c], 4)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: agreement rises with iterations toward ~0.9+ "
      "by 1000 (paper Fig. 16; 1.0 = exact).\n");
  return 0;
}
