// Fig. 5: per-iteration execution time for motif finding (all tree
// templates of size 7 / 10 / 12) on the four PPI networks.
//
// Expected shape (paper): k=7 (11 trees) well under a second per
// network; k=10 (106 trees) seconds; k=12 (551 trees) minutes at most.
// Times track network size (S. cerevisiae slowest, H. pylori fastest).

#include "core/motifs.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig05_motif_times: Fig. 5 series");
  if (!ctx.parse(argc, argv)) return 0;

  bench::banner("Fig. 5", "motif-finding time per iteration, PPI networks",
                ctx.full ? "k = 7, 10, 12 on all four networks"
                         : "k = 7, 10 everywhere; k = 12 on H. pylori only "
                           "(--full adds the rest)");

  TablePrinter table({"Network", "k", "#trees", "total time (s)",
                      "time/template (s)"});
  auto csv = ctx.csv({"network", "k", "trees", "seconds",
                      "seconds_per_template"});

  const char* networks[] = {"ecoli", "scerevisiae", "hpylori", "celegans"};
  for (const char* name : networks) {
    const Graph g = make_dataset(name, 1.0, ctx.seed);
    std::vector<int> sizes = {7, 10};
    if (ctx.full || std::string(name) == "hpylori") sizes.push_back(12);

    for (int k : sizes) {
      CountOptions options;
      options.sampling.iterations = 1;
      options.execution.outer_copies = 1;
      options.execution.threads = ctx.threads;
      options.sampling.seed = ctx.seed;
      const MotifProfile profile = count_all_treelets(g, k, options);
      std::vector<std::string> row = {
          dataset_spec(name).paper_name,
          TablePrinter::num(static_cast<long long>(k)),
          TablePrinter::num(profile.trees.size()),
          TablePrinter::num(profile.seconds_total, 2),
          TablePrinter::num(
              profile.seconds_total /
                  static_cast<double>(profile.trees.size()),
              4)};
      csv.row(row);
      table.add_row(std::move(row));
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: k=7 sweeps finish in well under a second per "
      "network, k=10 in seconds, k=12 in minutes at most (paper §V-A).\n");
  return 0;
}
