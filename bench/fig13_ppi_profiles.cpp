// Fig. 13: relative motif frequencies (counts scaled by each network's
// mean) for all 11 size-7 trees, overlaid across the four PPI
// networks.
//
// Expected shape (paper, after Alon et al.): the three unicellular
// organisms (E. coli, S. cerevisiae, H. pylori) have similar profiles;
// the multicellular C. elegans stands out.

#include "analytics/profiles.hpp"
#include "core/motifs.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig13_ppi_profiles: Fig. 13 series");
  if (!ctx.parse(argc, argv)) return 0;

  bench::banner("Fig. 13", "size-7 motif profiles across PPI networks",
                ctx.full ? "1000 iterations" : "30 iterations (--full: 1000)");

  const int iterations = ctx.full ? 1000 : 30;
  const char* networks[] = {"ecoli", "scerevisiae", "hpylori", "celegans"};
  std::vector<std::vector<double>> profiles;

  for (const char* name : networks) {
    const Graph g = make_dataset(name, 1.0, ctx.seed);
    CountOptions options;
    options.sampling.iterations = iterations;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;
    profiles.push_back(
        count_all_treelets(g, 7, options).relative_frequencies());
  }

  TablePrinter table({"Tree", "E.coli", "S.cere", "H.pylori", "C.elegans"});
  auto csv = ctx.csv({"tree", "ecoli", "scerevisiae", "hpylori", "celegans"});
  for (std::size_t i = 0; i < profiles[0].size(); ++i) {
    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(i + 1)),
        TablePrinter::sci(profiles[0][i], 3),
        TablePrinter::sci(profiles[1][i], 3),
        TablePrinter::sci(profiles[2][i], 3),
        TablePrinter::sci(profiles[3][i], 3)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nprofile log-distances (lower = more similar):\n");
  const char* labels[] = {"E.coli", "S.cere", "H.pylori", "C.elegans"};
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      std::printf("  %-10s vs %-10s : %.3f\n", labels[a], labels[b],
                  analytics::profile_log_distance(profiles[a], profiles[b]));
    }
  }
  std::printf(
      "\nexpected shape: the three unicellular organisms cluster; "
      "C. elegans stands apart (paper Fig. 13 / Alon et al.).\n");
  return 0;
}
