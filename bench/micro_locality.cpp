// micro_locality: the locality-execution grid (DESIGN.md §9) — vertex
// reordering x DP table layout x thread layout, measured on a SHUFFLED
// Chung-Lu network so the reorder passes have real disorder to undo
// (the generator itself emits near-degree-sorted graphs).
//
// Per configuration the harness runs count_template and records the
// fastest per-iteration DP time (reorder cost is reported separately —
// it is paid once and amortizes over iterations).  The speedup of a
// configuration is measured against the SAME table layout on the
// baseline path (reorder=none, inner layout), so the number isolates
// what reordering + scheduling buy, not table-vs-table differences.
// Estimates across the whole grid are checked against the baseline:
// bit-identical while colorful counts stay inside the exact-integer
// double range (< 2^53, which the unit tests pin down), and within a
// tight relative tolerance beyond it — at benchmark scale the hub
// vertices push partial sums past 2^53, where summation order (which
// both reordering and the hash table's iteration order change) is
// allowed to round the last few bits differently.  A run that breaks
// determinism beyond rounding fails immediately.
//
// Results go to --json (default BENCH_locality.json).  --check
// BASELINE re-measures and fails (exit 1) if any configuration's
// speedup drops below 0.75x the baseline file's value; both numbers
// are same-host ratios, so the gate is machine-independent.  CI runs
// it on every push next to the micro_dp gate.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/counter.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "treelet/catalog.hpp"

namespace {

using namespace fascia;

constexpr double kCheckTolerance = 0.75;  // fail below 0.75x baseline

// Permitted relative deviation between configurations' estimates.
// Counts are exact integers in doubles up to 2^53; past that, each of
// the ~n additions in the root sum can round by half an ulp, so the
// achievable agreement is ~n * 2^-53 ~ 1e-11 at this scale.  1e-9
// still catches any real divergence (a dropped vertex or a wrong
// colorset is a >1e-6 effect on these graphs).
constexpr double kEstimateTolerance = 1e-9;

struct Entry {
  double seconds_per_iter = 0.0;
  double speedup = 1.0;
  double gap_before = 0.0;
  double gap_after = 0.0;
  double reorder_seconds = 0.0;
  int outer_copies = 1;
  int inner_threads = 1;
  long long stage_passes = 0;  ///< scraped from dp.stage.* instruments
};

/// outer_copies of the two layout corners: 1 = inner, 0 = outer.
const char* layout_name(int outer_copies) {
  return outer_copies == 1 ? "inner" : "outer";
}

/// Minimal line-based reader for the "config_speedups" block this
/// bench writes — same idiom as micro_dp's baseline reader.
std::map<std::string, double> parse_config_speedups(
    const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (!in_block) {
      if (line.find("\"config_speedups\"") != std::string::npos) {
        in_block = true;
      }
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const auto key_begin = line.find('"');
    if (key_begin == std::string::npos) continue;
    const auto key_end = line.find('"', key_begin + 1);
    if (key_end == std::string::npos) continue;
    const auto colon = line.find(':', key_end);
    if (colon == std::string::npos) continue;
    out[line.substr(key_begin + 1, key_end - key_begin - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx(
      "micro_locality: reorder x table x thread-layout grid");
  ctx.cli.add_option("k", "template size (path template U<k>-1)", "7");
  ctx.cli.add_option("iters", "counting iterations per configuration", "3");
  ctx.cli.add_option("json", "machine-readable output path",
                     "BENCH_locality.json");
  ctx.cli.add_option("check",
                     "baseline JSON: exit 1 if any configuration speedup "
                     "falls below 0.75x its baseline value",
                     "");
  if (!ctx.parse(argc, argv)) return 0;
  const int k = static_cast<int>(ctx.cli.integer("k"));
  const int iters = std::max(2, static_cast<int>(ctx.cli.integer("iters")));
  const std::string json_path = ctx.cli.str("json");
  const std::string check_path = ctx.check_path();

  // Acceptance scale by default: >= 1M edges so the tables outgrow the
  // last-level cache and locality is what's being measured.  --scale
  // shrinks it for smoke runs.
  const auto n = static_cast<VertexId>(140000.0 * ctx.scale(1.0));
  const auto m = static_cast<EdgeCount>(n) * 8;
  const Graph generated =
      chung_lu(n, m, 2.1, /*max_degree_target=*/n / 10, ctx.seed);
  const Graph g = apply_permutation(
      generated, random_permutation(generated.num_vertices(),
                                    ctx.seed ^ 0x5eedULL));

  bench::banner("micro_locality",
                "locality-aware execution (DESIGN.md §9): reordering, "
                "first-touch tables, inner and outer thread layouts",
                "shuffled Chung-Lu, " + bench::describe_graph(g) +
                    ", U" + std::to_string(k) + "-1 path, " +
                    std::to_string(iters) + " iterations/config");
  std::printf("avg neighbor-id gap (shuffled input): %.1f\n\n",
              avg_neighbor_gap(g));

  // Timings below are scraped from the observability registry
  // (DESIGN.md §10) rather than bench-side stopwatches: the registry is
  // reset before each configuration, count_template's own instruments
  // fill it, and the per-iteration minimum is read back out.  Both
  // sides of every speedup ratio carry the same (gated <=5%) obs cost.
  obs::set_enabled(true);

  const TreeTemplate tree = TreeTemplate::path(k);
  const std::vector<ReorderMode> reorders = {
      ReorderMode::kNone, ReorderMode::kDegree, ReorderMode::kBfs,
      ReorderMode::kHybrid};
  const std::vector<std::pair<TableKind, const char*>> tables = {
      {TableKind::kNaive, "naive"},
      {TableKind::kCompact, "compact"},
      {TableKind::kHash, "hash"}};
  const std::vector<int> layouts = {1, 0};  // outer_copies

  std::map<std::string, Entry> entries;  // reorder:table:layout
  std::map<std::string, double> baseline_seconds;  // per table
  std::vector<double> reference_iterations;
  int mismatches = 0;
  double max_deviation = 0.0;

  for (const auto& [table, table_name] : tables) {
    for (ReorderMode reorder : reorders) {
      for (int copies : layouts) {
        CountOptions options;
        options.sampling.iterations = iters;
        options.sampling.seed = ctx.seed;
        options.execution.table = table;
        options.execution.outer_copies = copies;
        options.execution.reorder = reorder;
        options.execution.threads = ctx.threads;
        obs::Registry::global().reset();
        const CountResult result = count_template(g, tree, options);

        // Fastest iteration straight from the registry histogram; the
        // RunReport supplies the reorder cost.  (result.* still holds
        // the same numbers — the scrape is the point of this bench.)
        const auto iter_hist =
            obs::Registry::global().read("run.iteration.seconds").hist;
        const double best = iter_hist.count > 0
                                ? iter_hist.min
                                : result.seconds_per_iteration.front();
        Entry entry;
        entry.seconds_per_iter = best;
        entry.gap_before = result.reorder_gap_before;
        entry.gap_after = result.reorder_gap_after;
        entry.reorder_seconds =
            result.report != nullptr ? result.report->timing.reorder_seconds
                                     : result.reorder_seconds;
        entry.outer_copies = result.layout.outer_copies;
        entry.inner_threads = result.layout.inner_threads;
        entry.stage_passes = static_cast<long long>(
            obs::Registry::global().read("dp.stage.seconds").hist.count);

        const std::string key = std::string(reorder_mode_name(reorder)) +
                                ":" + table_name + ":" + layout_name(copies);
        if (reorder == ReorderMode::kNone && copies == 1) {
          baseline_seconds[table_name] = best;
        }
        entry.speedup = best > 0.0
                            ? baseline_seconds[table_name] / best
                            : 0.0;
        entries[key] = entry;

        // Determinism across the whole grid: every configuration must
        // reproduce the very first run's per-iteration estimates to
        // within rounding (see kEstimateTolerance).
        if (reference_iterations.empty()) {
          reference_iterations = result.per_iteration;
        } else {
          double dev = 0.0;
          const std::size_t shared = std::min(
              reference_iterations.size(), result.per_iteration.size());
          for (std::size_t i = 0; i < shared; ++i) {
            const double ref = reference_iterations[i];
            const double got = result.per_iteration[i];
            const double scale_ref = std::max(std::abs(ref), 1.0);
            dev = std::max(dev, std::abs(got - ref) / scale_ref);
          }
          if (reference_iterations.size() != result.per_iteration.size()) {
            dev = 1.0;  // missing iterations are a hard divergence
          }
          max_deviation = std::max(max_deviation, dev);
          if (dev > kEstimateTolerance) {
            std::fprintf(stderr,
                         "MISMATCH %s: estimates deviate by %.3e "
                         "(tolerance %.1e)\n",
                         key.c_str(), dev, kEstimateTolerance);
            ++mismatches;
          }
        }
      }
    }
  }

  TablePrinter table({"Reorder", "table", "layout", "t/iter (s)", "speedup",
                      "gap", "reorder (s)", "split", "stages"});
  double best_speedup = 0.0;
  std::string best_key;
  double worst_speedup = 1e300;
  for (const auto& [key, entry] : entries) {
    const auto first = key.find(':');
    const auto second = key.find(':', first + 1);
    table.add_row(
        {key.substr(0, first), key.substr(first + 1, second - first - 1),
         key.substr(second + 1), TablePrinter::num(entry.seconds_per_iter, 4),
         TablePrinter::num(entry.speedup, 2),
         entry.gap_after > 0.0
             ? TablePrinter::num(entry.gap_before, 0) + "->" +
                   TablePrinter::num(entry.gap_after, 0)
             : "-",
         TablePrinter::num(entry.reorder_seconds, 3),
         std::to_string(entry.outer_copies) + "x" +
             std::to_string(entry.inner_threads),
         TablePrinter::num(entry.stage_passes)});
    if (entry.speedup > best_speedup) {
      best_speedup = entry.speedup;
      best_key = key;
    }
    worst_speedup = std::min(worst_speedup, entry.speedup);
  }
  table.print();
  std::printf("\nbest config: %s at %.2fx vs baseline path; worst %.2fx\n",
              best_key.c_str(), best_speedup, worst_speedup);
  std::printf(
      "estimate determinism: %s (%d mismatches, max relative "
      "deviation %.3e, tolerance %.1e)\n",
      mismatches == 0 ? "PASS" : "FAIL", mismatches, max_deviation,
      kEstimateTolerance);
  if (mismatches != 0) return 1;

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"micro_locality\",\n");
  std::fprintf(json, "  \"graph_vertices\": %d,\n", g.num_vertices());
  std::fprintf(json, "  \"graph_edges\": %lld,\n",
               static_cast<long long>(g.num_edges()));
  std::fprintf(json, "  \"k\": %d,\n", k);
  std::fprintf(json, "  \"iters\": %d,\n", iters);
  std::fprintf(json, "  \"mismatches\": %d,\n", mismatches);
  std::fprintf(json, "  \"max_relative_deviation\": %.3e,\n", max_deviation);
  std::fprintf(json, "  \"best_speedup\": %.4f,\n", best_speedup);
  std::fprintf(json, "  \"worst_speedup\": %.4f,\n", worst_speedup);
  std::fprintf(json, "  \"entries\": [\n");
  {
    std::size_t emitted = 0;
    for (const auto& [key, entry] : entries) {
      std::fprintf(
          json,
          "    {\"key\": \"%s\", \"seconds_per_iter\": %.6f, "
          "\"speedup\": %.4f, \"gap_before\": %.1f, \"gap_after\": %.1f, "
          "\"reorder_seconds\": %.4f, \"outer\": %d, \"inner\": %d, "
          "\"stage_passes\": %lld}%s\n",
          key.c_str(), entry.seconds_per_iter, entry.speedup,
          entry.gap_before, entry.gap_after, entry.reorder_seconds,
          entry.outer_copies, entry.inner_threads, entry.stage_passes,
          ++emitted < entries.size() ? "," : "");
    }
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"config_speedups\": {\n");
  {
    std::size_t emitted = 0;
    for (const auto& [key, entry] : entries) {
      std::fprintf(json, "    \"%s\": %.4f%s\n", key.c_str(), entry.speedup,
                   ++emitted < entries.size() ? "," : "");
    }
  }
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  if (!check_path.empty()) {
    const auto baseline = parse_config_speedups(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "check: no config_speedups in %s\n",
                   check_path.c_str());
      return 1;
    }
    int regressions = 0;
    for (const auto& [key, base] : baseline) {
      const auto it = entries.find(key);
      if (it == entries.end()) {
        std::fprintf(stderr, "check: config %s missing from this run\n",
                     key.c_str());
        ++regressions;
        continue;
      }
      const double now = it->second.speedup;
      const bool ok = now >= kCheckTolerance * base;
      std::printf("check: %-24s baseline %.2fx now %.2fx  %s\n", key.c_str(),
                  base, now, ok ? "ok" : "REGRESSED");
      if (!ok) ++regressions;
    }
    if (regressions != 0) {
      std::fprintf(stderr, "check: %d config(s) regressed >25%% vs %s\n",
                   regressions, check_path.c_str());
      return 1;
    }
    std::printf("check: all configs within 25%% of %s\n",
                check_path.c_str());
  }
  return 0;
}
