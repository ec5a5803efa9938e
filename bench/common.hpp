#pragma once
// Shared scaffolding for the figure/table benches.
//
// Every bench accepts the common options (--full, --seed, --scale,
// --threads, --csv, --graph) and prints its results as an aligned
// table whose rows mirror the corresponding paper table/figure series.
// Default workloads are scaled so the entire `for b in build/bench/*`
// sweep finishes on a small single-core container; --full (or
// FASCIA_FULL=1) switches to paper-scale inputs.  EXPERIMENTS.md
// documents per-bench expectations.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"

namespace fascia::bench {

struct Context {
  Cli cli;
  bool full = false;
  double user_scale = 1.0;
  std::uint64_t seed = 42;
  int threads = 0;
  std::string graph_file;
  std::string csv_path;

  explicit Context(const std::string& description) : cli(description) {
    cli.add_common();
    cli.add_option("graph", "edge-list file replacing the generated network",
                   "");
  }

  /// Parses argv; returns false on --help.
  bool parse(int argc, char** argv) {
    if (!cli.parse(argc, argv)) return false;
    full = cli.full_scale();
    user_scale = cli.real("scale");
    seed = static_cast<std::uint64_t>(cli.integer("seed"));
    threads = static_cast<int>(cli.integer("threads"));
    graph_file = cli.str("graph");
    csv_path = cli.str("csv");
    return true;
  }

  /// Effective dataset scale: paper scale under --full, otherwise the
  /// bench's container-sized default times the user multiplier.
  [[nodiscard]] double scale(double default_scale) const {
    const double chosen = full ? 1.0 : default_scale * user_scale;
    return chosen > 1.0 ? 1.0 : chosen;
  }

  /// Builds the named Table I dataset at the effective scale (or loads
  /// --graph when given).
  [[nodiscard]] Graph dataset(const std::string& name,
                              double default_scale) const {
    return load_or_make(name, graph_file, scale(default_scale), seed);
  }

  /// The --check baseline of a gated bench.  A baseline that resolves
  /// to the --json output would be overwritten first and then gate the
  /// run against itself, so that is a usage error (exit 2).
  [[nodiscard]] std::string check_path() const {
    const std::string check = cli.str("check");
    if (check.empty()) return check;
    namespace fs = std::filesystem;
    std::error_code ec_check;
    std::error_code ec_json;
    const fs::path baseline = fs::weakly_canonical(check, ec_check);
    const fs::path output = fs::weakly_canonical(cli.str("json"), ec_json);
    if (!ec_check && !ec_json && baseline == output) {
      std::fprintf(stderr,
                   "--check %s is also the --json output; pass --json "
                   "<another path> so the baseline is not overwritten\n",
                   check.c_str());
      std::exit(2);
    }
    return check;
  }

  [[nodiscard]] CsvWriter csv(const std::vector<std::string>& header) const {
    if (csv_path.empty()) return {};
    return CsvWriter(csv_path, header);
  }
};

/// Standard bench banner: name, paper anchor, workload description.
inline void banner(const std::string& bench, const std::string& anchor,
                   const std::string& workload) {
  std::printf("== %s ==\n", bench.c_str());
  std::printf("reproduces: %s\n", anchor.c_str());
  std::printf("workload:   %s\n\n", workload.c_str());
}

inline std::string describe_graph(const Graph& graph) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "n=%d m=%lld d_avg=%.1f d_max=%lld",
                graph.num_vertices(),
                static_cast<long long>(graph.num_edges()),
                graph.avg_degree(),
                static_cast<long long>(graph.max_degree()));
  return buffer;
}

}  // namespace fascia::bench
