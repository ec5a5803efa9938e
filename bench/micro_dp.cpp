// micro_dp: per-kernel DP harness — reference (pre-frontier scalar
// full-scan) vs vectorized (frontier + SoA split layout + row borrow,
// DESIGN.md §8) kernels.
//
// Workload: a labeled Chung-Lu network (4 label values) counted with
// labeled path and star templates under both partition strategies, so
// all four kernels appear: one-at-a-time path partitions exercise the
// pair and single-active kernels, star partitions the single-passive
// kernel (the peeled leaf is the passive side), balanced path
// partitions the general split-table kernel.  Each (table, shape,
// strategy, k) configuration runs the same colorings through a
// reference-kernel engine and a vectorized engine, and checks the
// per-iteration totals are bitwise identical
// (DP values are exact integer counts, so reassociation must not
// change them).  All four table layouts are in the grid.
//
// Reported per kernel and table type: reference vs vectorized seconds
// (per-stage minimum across colorings, summed over stages), speedup,
// effective GFLOP/s (2·MACs / s on the vectorized path), and frontier
// occupancy (surviving vertices / n per pass).  Results are written
// as machine-readable JSON (--json, default BENCH_dp.json).
//
// --check BASELINE re-runs the measurement and fails (exit 1) if any
// per-(kernel, table) speedup drops below 0.75x the baseline file's
// value — a machine-independent regression gate (both numbers are
// ref/fast ratios measured on the same host), run by CI on every push.
// One absolute gate needs no baseline: the obs toggle must stay under
// 1.05x.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/coloring.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "graph/generators.hpp"
#include "treelet/partition.hpp"
#include "treelet/tree_template.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fascia;

constexpr int kNumLabels = 4;
constexpr double kCheckTolerance = 0.75;  // fail below 0.75x baseline
constexpr double kObsOverheadGate = 1.05;  // obs-on / obs-off wall ratio
const char* strategy_name(PartitionStrategy strategy) {
  return strategy == PartitionStrategy::kOneAtATime ? "oneatatime"
                                                    : "balanced";
}

/// Center vertex with legs of length 2 (plus one length-1 leg when k
/// is even).  Subtree roots keep branching, so balanced partitions
/// produce general (a > 1, p > 1) splits below the root — the stages
/// path templates never reach.
TreeTemplate spider(int k) {
  TreeTemplate::EdgeList edges;
  int v = 1;
  while (v + 1 < k) {
    edges.push_back({0, v});
    edges.push_back({v, v + 1});
    v += 2;
  }
  if (v < k) edges.push_back({0, v});
  return TreeTemplate::from_edges(k, edges);
}

TreeTemplate make_shape(const std::string& shape, int k) {
  if (shape == "star") return TreeTemplate::star(k);
  if (shape == "spider") return spider(k);
  return TreeTemplate::path(k);
}

struct Agg {
  double ref_seconds = 0.0;
  double fast_seconds = 0.0;
  std::uint64_t macs = 0;        // vectorized path
  std::uint64_t survivors = 0;   // vectorized path
  std::uint64_t ref_passes = 0;
  std::uint64_t fast_passes = 0;

  [[nodiscard]] double speedup() const {
    return fast_seconds > 0.0 ? ref_seconds / fast_seconds : 0.0;
  }
  [[nodiscard]] double gflops() const {
    return fast_seconds > 0.0
               ? 2.0 * static_cast<double>(macs) / fast_seconds * 1e-9
               : 0.0;
  }
  [[nodiscard]] double occupancy(VertexId n) const {
    return fast_passes > 0
               ? static_cast<double>(survivors) /
                     (static_cast<double>(fast_passes) *
                      static_cast<double>(n))
               : 0.0;
  }
};

struct Harness {
  const Graph& graph;
  int iters;
  std::uint64_t seed;
  std::map<std::string, Agg> per_config{};  // kernel:table:kN:strategy
  std::map<std::string, Agg> per_kernel{};  // kernel:table
  int mismatches = 0;

  template <class Table>
  void run_config(const char* table_name, const char* shape,
                  PartitionStrategy strategy, int k) {
    TreeTemplate tmpl = make_shape(shape, k);
    std::vector<std::uint8_t> labels(static_cast<std::size_t>(k));
    for (int v = 0; v < k; ++v) {
      labels[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>(v % kNumLabels);
    }
    tmpl.set_labels(std::move(labels));
    const PartitionTree partition = partition_template(tmpl, strategy);

    DpEngineOptions ref_opts;
    ref_opts.reference_kernels = true;
    ref_opts.collect_stats = true;
    DpEngineOptions fast_opts;
    fast_opts.collect_stats = true;
    DpEngine<Table> ref_engine(graph, partition, k, ref_opts);
    DpEngine<Table> fast_engine(graph, partition, k, fast_opts);

    // Per-stage minimum across the colorings: every run emits the same
    // stage sequence, so the elementwise min is the least-noise
    // estimate of each stage's cost (a single preempted pass cannot
    // pollute the aggregate).  Work counters are averaged.
    std::vector<DpStageStats> ref_stats, fast_stats;
    const auto merge_min = [this](std::vector<DpStageStats>& into,
                                  const std::vector<DpStageStats>& run) {
      if (into.empty()) {
        into = run;
        return;
      }
      for (std::size_t i = 0; i < into.size() && i < run.size(); ++i) {
        into[i].seconds = std::min(into[i].seconds, run[i].seconds);
        into[i].macs = (into[i].macs + run[i].macs) / 2;
        into[i].survivors = (into[i].survivors + run[i].survivors) / 2;
      }
    };
    for (int iter = 0; iter < iters; ++iter) {
      const ColorArray colors = detail::random_coloring(
          graph, k, detail::iteration_seed(seed, iter));
      ref_engine.clear_stage_stats();
      fast_engine.clear_stage_stats();
      const double ref_total =
          ref_engine.run(colors, /*parallel_inner=*/false);
      const double fast_total =
          fast_engine.run(colors, /*parallel_inner=*/false);
      if (ref_total != fast_total) {
        std::fprintf(stderr,
                     "MISMATCH %s/%s/%s/k%d iter %d: ref %.17g fast %.17g\n",
                     table_name, shape, strategy_name(strategy), k, iter,
                     ref_total, fast_total);
        ++mismatches;
      }
      merge_min(ref_stats, ref_engine.stage_stats());
      merge_min(fast_stats, fast_engine.stage_stats());
    }

    const std::string suffix = std::string(":") + table_name;
    const std::string config_tail = std::string(":") + shape + ":k" +
                                    std::to_string(k) + ":" +
                                    strategy_name(strategy);
    for (const DpStageStats& stat : ref_stats) {
      const std::string kernel = dp_kernel_name(stat.kernel);
      Agg& config = per_config[kernel + suffix + config_tail];
      config.ref_seconds += stat.seconds;
      ++config.ref_passes;
      Agg& total = per_kernel[kernel + suffix];
      total.ref_seconds += stat.seconds;
      ++total.ref_passes;
    }
    for (const DpStageStats& stat : fast_stats) {
      const std::string kernel = dp_kernel_name(stat.kernel);
      Agg& config = per_config[kernel + suffix + config_tail];
      config.fast_seconds += stat.seconds;
      config.macs += stat.macs;
      config.survivors += stat.survivors;
      ++config.fast_passes;
      Agg& total = per_kernel[kernel + suffix];
      total.fast_seconds += stat.seconds;
      total.macs += stat.macs;
      total.survivors += stat.survivors;
      ++total.fast_passes;
    }
  }

  void run_all(const char* shape, PartitionStrategy strategy, int k) {
    run_config<NaiveTable>("naive", shape, strategy, k);
    run_config<CompactTable>("compact", shape, strategy, k);
    run_config<HashTable>("hash", shape, strategy, k);
    run_config<SuccinctTable>("succinct", shape, strategy, k);
  }
};

/// A/B overhead measurement: the same engine + colorings with the
/// observability layer disabled vs enabled at runtime.  The grid above
/// runs obs-off (the process default), so its numbers stay comparable
/// with pre-obs baselines; this isolates the toggle cost.  Min-of-runs
/// per side so scheduler noise cannot manufacture an overhead.
struct ObsOverhead {
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  [[nodiscard]] double ratio() const {
    return off_seconds > 0.0 ? on_seconds / off_seconds : 0.0;
  }
};

ObsOverhead measure_obs_overhead(const Graph& graph, int k, int iters) {
  TreeTemplate tmpl = make_shape("path", k);
  std::vector<std::uint8_t> labels(static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    labels[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>(v % kNumLabels);
  }
  tmpl.set_labels(std::move(labels));
  const PartitionTree partition =
      partition_template(tmpl, PartitionStrategy::kOneAtATime);
  DpEngine<CompactTable> engine(graph, partition, k,
                                DpEngineOptions{});

  const int rounds = std::max(8, 2 * iters);
  const auto timed_run = [&](bool obs_on, int round) {
    obs::set_enabled(obs_on);
    const ColorArray colors = detail::random_coloring(
        graph, k, detail::iteration_seed(7, round));
    WallTimer timer;
    engine.run(colors, /*parallel_inner=*/false);
    return timer.elapsed_s();
  };
  // Warm both paths, then interleave off/on rounds (same coloring per
  // round) so clock-frequency drift cannot bias one side; min-of-N per
  // side discards scheduler noise.
  timed_run(false, 0);
  timed_run(true, 0);
  ObsOverhead result;
  for (int r = 0; r < rounds; ++r) {
    const double off = timed_run(false, r);
    const double on = timed_run(true, r);
    if (r == 0 || off < result.off_seconds) result.off_seconds = off;
    if (r == 0 || on < result.on_seconds) result.on_seconds = on;
  }
  obs::set_enabled(false);
  return result;
}

/// Minimal line-based reader for the "kernel_speedups" block this
/// bench writes — not a general JSON parser.  Returns key -> speedup.
std::map<std::string, double> parse_kernel_speedups(
    const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (!in_block) {
      if (line.find("\"kernel_speedups\"") != std::string::npos) {
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
  bench::Context ctx("micro_dp: DP kernel harness, reference vs vectorized");
  ctx.cli.add_option("kmin", "smallest template size", "5");
  ctx.cli.add_option("kmax", "largest template size (0 = 8, 10 with --full)",
                     "0");
  ctx.cli.add_option("iters", "colorings per configuration", "3");
  ctx.cli.add_option("json", "machine-readable output path",
                     "BENCH_dp.json");
  ctx.cli.add_option("check",
                     "baseline JSON: exit 1 if any kernel speedup falls "
                     "below 0.75x its baseline value",
                     "");
  if (!ctx.parse(argc, argv)) return 0;
  const int kmin = static_cast<int>(ctx.cli.integer("kmin"));
  int kmax = static_cast<int>(ctx.cli.integer("kmax"));
  if (kmax <= 0) kmax = ctx.full ? 10 : 8;
  const int iters = static_cast<int>(ctx.cli.integer("iters"));
  const std::string json_path = ctx.cli.str("json");
  const std::string check_path = ctx.check_path();

  bench::banner("micro_dp",
                "DP inner-loop rebuild (DESIGN.md §8): frontiers + SoA "
                "splits + row borrowing",
                "labeled paths + stars k=" + std::to_string(kmin) + ".." +
                    std::to_string(kmax) + ", both partition strategies, "
                    "all table types, " + std::to_string(iters) +
                    " colorings each");

  // Labeled heavy-tailed stand-in: large and dense enough that the
  // multiply-accumulate loops dominate per-stage fixed costs (row
  // clears, commits), small enough for the CI smoke run.
  const auto n = static_cast<VertexId>(10000.0 * ctx.scale(1.0));
  Graph g = chung_lu(n, static_cast<EdgeCount>(n) * 8, 2.1,
                     /*max_degree_target=*/n / 10, ctx.seed);
  {
    Xoshiro256 rng(ctx.seed ^ 0xbadc0ffeeULL);
    std::vector<std::uint8_t> labels(
        static_cast<std::size_t>(g.num_vertices()));
    for (auto& label : labels) {
      label = static_cast<std::uint8_t>(rng.bounded(kNumLabels));
    }
    g.set_labels(std::move(labels), kNumLabels);
  }
  std::printf("graph: %s, %d labels\n\n", bench::describe_graph(g).c_str(),
              kNumLabels);

  Harness harness{g, iters, ctx.seed};
  for (int k = kmin; k <= kmax; ++k) {
    harness.run_all("path", PartitionStrategy::kOneAtATime, k);
    harness.run_all("path", PartitionStrategy::kBalanced, k);
    // Stars peel single leaves off the passive side (single-passive
    // kernel); spiders keep branching below the root, so their
    // balanced partitions hit general splits with 1 < a < h.
    harness.run_all("star", PartitionStrategy::kOneAtATime, k);
    harness.run_all("spider", PartitionStrategy::kBalanced, k);
  }

  TablePrinter table({"Kernel", "table", "ref s", "vec s", "speedup",
                      "GFLOP/s", "occupancy"});
  for (const auto& [key, agg] : harness.per_kernel) {
    const auto sep = key.find(':');
    table.add_row({key.substr(0, sep), key.substr(sep + 1),
                   TablePrinter::num(agg.ref_seconds, 4),
                   TablePrinter::num(agg.fast_seconds, 4),
                   TablePrinter::num(agg.speedup(), 2),
                   TablePrinter::num(agg.gflops(), 3),
                   TablePrinter::num(agg.occupancy(g.num_vertices()), 3)});
  }
  table.print();

  std::printf("\nestimate bit-identity: %s (%d mismatches)\n",
              harness.mismatches == 0 ? "PASS" : "FAIL", harness.mismatches);
  if (harness.mismatches != 0) return 1;

  // Observability toggle cost (DESIGN.md §10): the registry/trace hooks
  // compiled into the kernels must be free when disabled and cheap when
  // enabled.  Measured outside the grid so grid numbers stay obs-off.
  obs::Registry::global().reset();
  const ObsOverhead obs_overhead =
      measure_obs_overhead(g, std::min(kmax, 7), iters);
  const auto stage_seconds = obs::Registry::global().read("dp.stage.seconds");
  std::printf("\nobs overhead (labeled path k=%d, compact): off %.4fs  "
              "on %.4fs  ratio %.3f  (registry saw %llu stage passes)\n",
              std::min(kmax, 7), obs_overhead.off_seconds,
              obs_overhead.on_seconds, obs_overhead.ratio(),
              static_cast<unsigned long long>(stage_seconds.hist.count));

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"micro_dp\",\n");
  std::fprintf(json, "  \"graph_vertices\": %d,\n", g.num_vertices());
  std::fprintf(json, "  \"graph_edges\": %lld,\n",
               static_cast<long long>(g.num_edges()));
  std::fprintf(json, "  \"labels\": %d,\n", kNumLabels);
  std::fprintf(json, "  \"kmin\": %d,\n", kmin);
  std::fprintf(json, "  \"kmax\": %d,\n", kmax);
  std::fprintf(json, "  \"iters\": %d,\n", iters);
  std::fprintf(json, "  \"mismatches\": %d,\n", harness.mismatches);
  std::fprintf(json,
               "  \"obs_overhead\": {\"off_seconds\": %.6f, "
               "\"on_seconds\": %.6f, \"ratio\": %.4f},\n",
               obs_overhead.off_seconds, obs_overhead.on_seconds,
               obs_overhead.ratio());
  std::fprintf(json, "  \"entries\": [\n");
  {
    std::size_t emitted = 0;
    for (const auto& [key, agg] : harness.per_config) {
      std::fprintf(
          json,
          "    {\"key\": \"%s\", \"ref_seconds\": %.6f, "
          "\"vec_seconds\": %.6f, \"speedup\": %.4f, \"gflops\": %.4f, "
          "\"occupancy\": %.4f}%s\n",
          key.c_str(), agg.ref_seconds, agg.fast_seconds, agg.speedup(),
          agg.gflops(), agg.occupancy(g.num_vertices()),
          ++emitted < harness.per_config.size() ? "," : "");
    }
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"kernel_speedups\": {\n");
  {
    std::size_t emitted = 0;
    for (const auto& [key, agg] : harness.per_kernel) {
      std::fprintf(json, "    \"%s\": %.4f%s\n", key.c_str(), agg.speedup(),
                   ++emitted < harness.per_kernel.size() ? "," : "");
    }
  }
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  if (!check_path.empty()) {
    const auto baseline = parse_kernel_speedups(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "check: no kernel_speedups in %s\n",
                   check_path.c_str());
      return 1;
    }
    int regressions = 0;
    for (const auto& [key, base] : baseline) {
      const auto it = harness.per_kernel.find(key);
      if (it == harness.per_kernel.end()) {
        std::fprintf(stderr, "check: kernel %s missing from this run\n",
                     key.c_str());
        ++regressions;
        continue;
      }
      const double now = it->second.speedup();
      const bool ok = now >= kCheckTolerance * base;
      std::printf("check: %-22s baseline %.2fx now %.2fx  %s\n", key.c_str(),
                  base, now, ok ? "ok" : "REGRESSED");
      if (!ok) ++regressions;
    }
    if (regressions != 0) {
      std::fprintf(stderr, "check: %d kernel(s) regressed >25%% vs %s\n",
                   regressions, check_path.c_str());
      return 1;
    }
    std::printf("check: all kernels within 25%% of %s\n", check_path.c_str());
    // Absolute gate, no baseline needed: enabling observability may not
    // slow the measured kernel loop by more than 5%.
    if (obs_overhead.ratio() > kObsOverheadGate) {
      std::fprintf(stderr,
                   "check: obs-on overhead %.3fx exceeds %.2fx gate\n",
                   obs_overhead.ratio(), kObsOverheadGate);
      return 1;
    }
    std::printf("check: obs toggle overhead %.3fx within %.2fx gate\n",
                obs_overhead.ratio(), kObsOverheadGate);
  }
  return 0;
}
