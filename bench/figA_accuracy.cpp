// Supplementary: theoretical vs practical iteration counts (§III-A).
//
// Alg. 1 line 2 prescribes N_iter ≈ e^k · ln(1/δ)/ε² iterations for an
// (ε, δ) guarantee; the paper then notes "the number of iterations
// necessary in practice is far lower".  This bench quantifies the gap:
// for each template size we report the theoretical bound for
// (ε = 10 %, δ = 5 %) next to the iterations the adaptive stopper
// actually needed to reach a 5 % relative standard error.

#include "common.hpp"
#include "core/accuracy.hpp"
#include "exact/backtrack.hpp"
#include "treelet/catalog.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("figA_accuracy: theoretical vs practical iterations");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("ecoli", 1.0);
  bench::banner("Supplementary: accuracy",
                "§III-A: practical iterations << theoretical bound",
                "ecoli-like, " + bench::describe_graph(g));

  TablePrinter table({"Template", "k", "theory (eps=0.1,delta=0.05)",
                      "adaptive iters (5% stderr)", "measured error",
                      "ratio"});
  auto csv = ctx.csv({"template", "k", "theoretical", "adaptive",
                      "measured_error", "ratio"});

  for (const char* name : {"U3-1", "U5-1", "U5-2", "U7-1", "U7-2"}) {
    const auto& entry = catalog_entry(name);
    if (entry.is_triangle) continue;
    const double theory =
        theoretical_iterations(entry.size, 0.1, 0.05);

    CountOptions options;
    options.execution.outer_copies = 1;
    options.execution.threads = ctx.threads;
    options.sampling.seed = ctx.seed;
    // Fine-grained batches so the stopping point is resolved to ~8
    // iterations rather than the default max/16 chunk.
    const AdaptiveResult adaptive =
        adaptive_count(g, entry.tree, /*target=*/0.05,
                       /*max_iterations=*/5000, options, /*batch_size=*/8);

    // Ground truth for small templates only (k <= 5 is cheap here).
    double measured_error = -1.0;
    if (entry.size <= 5) {
      const double exact = exact::count_embeddings(g, entry.tree);
      measured_error = relative_error(adaptive.count.estimate, exact);
    }

    std::vector<std::string> row = {
        entry.name, TablePrinter::num(static_cast<long long>(entry.size)),
        TablePrinter::sci(theory, 2),
        TablePrinter::num(static_cast<long long>(adaptive.iterations_used)),
        measured_error < 0 ? "(exact too slow)"
                           : TablePrinter::num(measured_error, 4),
        TablePrinter::sci(theory /
                              std::max(1, adaptive.iterations_used),
                          1)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape: the theoretical bound exceeds practical "
      "iteration counts by 2-6 orders of magnitude (§III-A's 'far "
      "lower'), while measured errors stay at the few-percent level.\n");
  return 0;
}
