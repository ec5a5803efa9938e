// perfbench: the end-to-end benchmark.
//
//   perfbench --workload count-skewed|profile-road|serve-mixed
//             --seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Each workload is a closed loop (a caller sends its next request only
// after the previous one returned) over the library's public entry
// points: GraphSource, count_template, sched::run_batch,
// svc::Server/svc::Client, Graph::apply/GraphDelta and
// exact::count_embeddings.  Only iterations, seed and threads are set
// on the counting calls; everything else stays at its default so that
// planned deletions of knobs do not touch this file.
//
// A run does a fixed amount of work, scaled from --seconds by the
// workload's nominal rate on a 4-core Xeon (about --seconds of wall
// time there), so run_s compares across commits.  --trace 0 measures
// the end-to-end metrics with observability off.  --trace 1 runs half
// the work untraced and half traced (benchmark-side spans plus the library's
// RunReport with observability on) and reports the per-layer metrics;
// their ratio is obs.overhead_frac.
//
// Correctness gate, every run: repeated requests are bit-identical to
// the setup reference; a one-job run_batch equals count_template; on
// serve-mixed the final recount equals count_template on the graph
// rebuilt by replaying the writer's deltas; an unbiasedness z-test
// against exact::count_embeddings on a small graph.  A request that
// fails, is refused or completes fewer iterations than asked counts as
// failed.  Any mismatch prints "correct": false and exits 1.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the lines before it are a human-readable summary and run metadata.

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comb/binomial.hpp"
#include "core/counter.hpp"
#include "exact/backtrack.hpp"
#include "graph/delta.hpp"
#include "graph/source.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "sched/batch.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "treelet/catalog.hpp"
#include "treelet/free_trees.hpp"

#include "span.hpp"

extern char** environ;

namespace {

using fascia::obs::Json;
using perfbench::Clock;
using perfbench::median;
using perfbench::percentile;
using perfbench::seconds_since;
using perfbench::Span;
using perfbench::Tracer;

constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 0.5;
constexpr double kMinSpanCoverage = 0.95;
constexpr double kMaxZ = 6.0;

// Nominal rates (operations per second) on a 4-core Xeon; the fixed
// work of a run is --seconds times these.
constexpr double kCountCallsPerSecond = 2.2;
constexpr double kProfilesPerSecond = 0.8;
constexpr double kReadsPerSecond = 20.0;
constexpr double kUpdatesPerSecond = 50.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stoi(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out-dir") args.out_dir = value;
    else if (key == "--commit") args.commit = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

int quota(const Args& args, double per_second) {
  return std::max(4, static_cast<int>(std::lround(args.seconds * per_second)));
}

// ---- process and machine facts --------------------------------------------

struct Usage {
  double cpu_s = 0.0;
  long invol_csw = 0;
  double max_rss_mb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.invol_csw = ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

Json omp_environment() {
  Json env = Json::object();
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("OMP_", 0) == 0 || entry.rfind("GOMP_", 0) == 0) {
      const auto eq = entry.find('=');
      env[entry.substr(0, eq)] = entry.substr(eq + 1);
    }
  }
  return env;
}

/// Keeps `threads` cores busy for a fixed time so a run starts on a
/// clocked-up machine with the OpenMP pool already created.
void warm_up(int threads) {
  const auto start = Clock::now();
#pragma omp parallel num_threads(threads)
  {
    volatile double sink = 0.0;
    while (seconds_since(start) < kWarmupSeconds) {
      for (int i = 0; i < 4096; ++i) sink = sink + 1e-9 * i;
    }
  }
}

std::size_t llc_bytes() {
  long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size <= 0) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string text;
    if (in >> text && !text.empty()) {
      size = std::atol(text.c_str());
      if (text.back() == 'K') size *= 1024;
      if (text.back() == 'M') size *= 1024 * 1024;
    }
  }
  return size > 0 ? static_cast<std::size_t>(size) : std::size_t{32} << 20;
}

struct Probe {
  double gbps = 0.0;
  std::size_t llc = 0;
  std::size_t array_bytes = 0;
};

/// STREAM-style triad a = b + s*c over three arrays whose combined size
/// is 4x the last-level cache, on every core; best of three passes.
Probe triad_probe() {
  Probe probe;
  probe.llc = llc_bytes();
  const std::size_t n = (4 * probe.llc / 3) / sizeof(double);
  probe.array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto count = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < count; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < count; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, seconds_since(start));
  }
  if (a[count / 2] != 7.0) throw std::runtime_error("triad probe miscomputed");
  probe.gbps = 3.0 * static_cast<double>(probe.array_bytes) / best / 1e9;
  return probe;
}

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or why it is not applicable
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> mismatches;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;  ///< printed only: metrics not every workload has
  Json meta = Json::object();

  void mismatch(const std::string& what) {
    correct = false;
    mismatches.push_back(what);
  }
  void e2e(std::string name, double value, std::string unit, std::string note = "") {
    end_to_end.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void layer(std::string name, double value, std::string unit, std::string note = "") {
    per_layer.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
};

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

/// Timing samples of one request class; ms.
struct Latencies {
  std::vector<double> ms;
  void add(double seconds) { ms.push_back(1e3 * seconds); }
  [[nodiscard]] double p(double q) const { return percentile(ms, q); }
  /// "n=.." plus a warning when fewer than ten samples lie beyond q.
  [[nodiscard]] std::string note(double q) const {
    return samples(ms.size()) +
           (perfbench::percentile_supported(ms.size(), q) ? "" : " (<10 beyond)");
  }
};

/// Per-coloring DP accounting summed over the RunReports of a phase.
struct DpTotals {
  double stage_s[4] = {0.0, 0.0, 0.0, 0.0};  ///< pair, active, passive, general
  double stage_total_s = 0.0;                ///< every reported stage
  double macs = 0.0;
  double candidates = 0.0;
  double survivors = 0.0;
  double bytes = 0.0;      ///< computed from table sizes, not measured
  double iter_s = 0.0;     ///< Σ per-coloring seconds over engine copies
  double call_s = 0.0;     ///< Σ call wall x engine copies
  double colorings = 0.0;
  double peak_table_bytes = 0.0;
  std::vector<double> iter_ms;
  std::vector<double> call_ms;

  void add(const fascia::obs::RunReport& report, double call_seconds, int copies,
           double call_colorings) {
    // Kernel names carry a family suffix ("general_spmm"); bucket by prefix.
    static const char* const kKernels[4] = {"pair", "single_active", "single_passive",
                                            "general"};
    const int k = report.sampling.num_colors;
    for (const fascia::obs::ReportStage& stage : report.stages) {
      for (int i = 0; i < 4; ++i) {
        if (stage.kernel.rfind(kKernels[i], 0) == 0) stage_s[i] += stage.seconds;
      }
      stage_total_s += stage.seconds;
      macs += stage.macs;
      candidates += stage.candidates;
      survivors += stage.survivors;
      const auto h = static_cast<int>(stage.parent_size);
      const auto a = static_cast<int>(stage.active_size);
      // One active-child row and one passive-width row read per
      // candidate vertex, one parent row written per survivor.
      const double row_reads = static_cast<double>(fascia::choose(k, a)) +
                               static_cast<double>(fascia::choose(k, h - a));
      bytes += 8.0 * (stage.candidates * row_reads +
                      stage.survivors * static_cast<double>(fascia::choose(k, h)));
    }
    for (double s : report.timing.per_iteration_seconds) {
      iter_s += s;
      iter_ms.push_back(1e3 * s);
    }
    call_s += call_seconds * copies;
    call_ms.push_back(1e3 * call_seconds);
    colorings += call_colorings;
    peak_table_bytes = std::max(
        peak_table_bytes, static_cast<double>(report.memory.observed_peak_bytes));
  }
};

/// Sample of one phase: its wall time, the requests' outcomes, the
/// processor use, and (traced) what the library reported.
struct Phase {
  double run_s = 0.0;
  long attempted = 0;
  long failed = 0;
  long colorings = 0;
  Latencies primary;  ///< count call / profile / read round trip
  Usage usage_before;
  Usage usage_after;
  DpTotals dp;
  double coverage = 0.0;  ///< traced: share of the phase its request spans cover
};

void record_dp_metrics(Result& out, const DpTotals& dp, double probe_gbps) {
  const double colorings = std::max(1.0, dp.colorings);
  static const char* const kNames[4] = {"dp.stage_s.pair", "dp.stage_s.active",
                                        "dp.stage_s.passive", "dp.stage_s.general"};
  for (int i = 0; i < 4; ++i) {
    out.layer(kNames[i], dp.stage_s[i] / colorings, "s", "per coloring");
  }
  const double stage_total = dp.stage_total_s;
  out.layer("core.call_ms", median(dp.call_ms), "ms", samples(dp.call_ms.size()));
  out.layer("core.iter_ms", median(dp.iter_ms), "ms", samples(dp.iter_ms.size()));
  out.layer("core.outside_iter_frac", dp.call_s > 0 ? 1.0 - dp.iter_s / dp.call_s : 0.0,
            "frac", "1 - sum(iteration s) / sum(call wall x engine copies)");
  out.layer("core.unattributed_frac", dp.iter_s > 0 ? 1.0 - stage_total / dp.iter_s : 0.0,
            "frac", "1 - sum(stage s) / sum(iteration s)");
  out.layer("dp.macs", dp.macs / colorings, "count", "per coloring");
  const double gmacs = stage_total > 0 ? dp.macs / stage_total / 1e9 : 0.0;
  out.layer("dp.gmacs_per_s", gmacs, "GMAC/s");
  out.layer("dp.survivor_frac", dp.candidates > 0 ? dp.survivors / dp.candidates : 0.0,
            "frac", "survivors / candidates");
  const double gbps = stage_total > 0 ? dp.bytes / stage_total / 1e9 : 0.0;
  out.layer("dp.gbps_computed", gbps, "GB/s", "computed from table sizes");
  out.layer("dp.bw_frac", probe_gbps > 0 ? gbps / probe_gbps : 0.0, "frac",
            "dp.gbps_computed / mem.probe_gbps");
  out.layer("dp.peak_table_mb", dp.peak_table_bytes / 1e6, "MB");
}

constexpr const char* kNotApplicable = "n/a: layer not exercised by this workload";

void record_absent(Result& out, const std::vector<std::pair<std::string, std::string>>& names) {
  for (const auto& [name, unit] : names) out.layer(name, 0.0, unit, kNotApplicable);
}

const std::vector<std::pair<std::string, std::string>> kSchedMetrics = {
    {"sched.plan_ms", "ms"}, {"sched.round_ms", "ms"},
    {"sched.reuse_frac", "frac"}, {"sched.stage_evals", "count"}};
const std::vector<std::pair<std::string, std::string>> kSvcMetrics = {
    {"graph.apply_ms", "ms"},         {"svc.engine_ms", "ms"},
    {"svc.overhead_ms", "ms"},        {"svc.codec_us", "us"},
    {"svc.mutate_ms", "ms"},          {"svc.recount_engine_ms", "ms"},
    {"incr.dirty_frac", "frac"},      {"incr.recompute_frac", "frac"}};

/// End-to-end metrics every workload reports.
void record_end_to_end(Result& out, const std::vector<double>& setups, const Phase& phase,
                       const char* op) {
  out.e2e("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) + " setups");
  out.e2e("run_s", phase.run_s, "s", "fixed work");
  out.e2e("peak_rss_mb", usage_now().max_rss_mb, "MB");
  out.e2e("colorings_per_s", static_cast<double>(phase.colorings) / phase.run_s, "1/s",
          std::to_string(phase.colorings) + " colorings");
  out.e2e("op_p50_ms", phase.primary.p(0.5), "ms",
          std::string(op) + ", " + phase.primary.note(0.5));
}

// ---- shared correctness checks ---------------------------------------------

fascia::CountOptions count_options(int iterations, std::uint64_t seed, int threads,
                                   bool observe) {
  auto builder = fascia::CountOptions::builder().iterations(iterations).seed(seed);
  if (threads > 0) builder.threads(threads);
  if (observe) builder.observability(true);
  return builder.build();
}

/// A one-job run_batch equals count_template (U10-2, small skewed graph).
void check_batch_matches_count(Result& out, std::uint64_t seed) {
  const fascia::Graph graph =
      fascia::GraphSource::from_dataset("enron").scale(0.05).seed(seed).build();
  const fascia::TreeTemplate& tmpl = fascia::catalog_entry("U10-2").tree;
  const fascia::CountResult direct =
      fascia::count_template(graph, tmpl, count_options(3, seed, 2, false));
  fascia::sched::BatchOptions options;
  options.seed = seed;
  options.num_threads = 2;
  const fascia::sched::BatchResult batch =
      fascia::sched::run_batch(graph, {{tmpl, 3}}, options);
  if (batch.jobs.size() != 1 || batch.jobs[0].estimate != direct.estimate) {
    out.mismatch("one-job run_batch differs from count_template on U10-2");
  }
}

/// Mean of one-iteration estimates over many seeds against the exact
/// count on a small graph: |mean - exact| / stderr must stay within kMaxZ.
void check_unbiased(Result& out, std::uint64_t seed) {
  constexpr int kSeeds = 64;
  const fascia::Graph graph =
      fascia::GraphSource::from_dataset("enron").scale(0.004).seed(seed).build();
  const fascia::TreeTemplate& tmpl = fascia::catalog_entry("U5-1").tree;
  const double exact = fascia::exact::count_embeddings(graph, tmpl);
  std::vector<double> estimates;
  for (int i = 0; i < kSeeds; ++i) {
    estimates.push_back(
        fascia::count_template(graph, tmpl, count_options(1, seed * 1000 + i, 1, false))
            .estimate);
  }
  double mean = 0.0;
  for (double e : estimates) mean += e;
  mean /= kSeeds;
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  const double stderr_mean = std::sqrt(var / (kSeeds - 1) / kSeeds);
  const double z = stderr_mean > 0 ? std::fabs(mean - exact) / stderr_mean
                                   : (mean == exact ? 0.0 : 1e30);
  out.meta["unbiased_check"] = Json::object();
  out.meta["unbiased_check"]["exact"] = exact;
  out.meta["unbiased_check"]["mean"] = mean;
  out.meta["unbiased_check"]["z"] = z;
  if (!(z <= kMaxZ)) {
    std::ostringstream what;
    what << "estimator mean " << mean << " vs exact " << exact << ": z=" << z;
    out.mismatch(what.str());
  }
}

// ---- phases shared by the workloads ---------------------------------------

/// Runs `ops` requests through `one(i, phase_span, phase)` back to back
/// and times the whole phase.  Traced phases open a "phase" span that
/// the requests' spans are children of.
template <class One>
Phase timed_phase(Tracer& tracer, bool traced, int ops, One&& one) {
  Phase p;
  p.usage_before = usage_now();
  const int span = traced ? tracer.begin("phase") : -1;
  const auto start = Clock::now();
  for (int i = 0; i < ops; ++i) one(i, span, p);
  p.run_s = seconds_since(start);
  tracer.end(span);
  p.usage_after = usage_now();
  if (traced) p.coverage = perfbench::child_coverage(tracer.spans(), static_cast<std::size_t>(span));
  return p;
}

/// Per-layer metrics every traced run reports: graph builds, the DP
/// accounting of the traced half, processor use of the untraced half,
/// the tracing overhead between the halves, bandwidth, span coverage.
void record_traced_common(Result& out, const std::vector<double>& builds,
                          const std::string& build_note, const Phase& plain,
                          const Phase& traced) {
  const Probe probe = triad_probe();
  out.layer("graph.build_s", median(builds), "s", build_note + samples(builds.size()));
  record_dp_metrics(out, traced.dp, probe.gbps);
  const double cpu = plain.usage_after.cpu_s - plain.usage_before.cpu_s;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  out.layer("proc.cpu_util", cpu / (plain.run_s * static_cast<double>(nproc)), "frac",
            "untraced half, CPU seconds / (wall x " + std::to_string(nproc) + " cores)");
  out.layer("proc.invol_csw_per_op",
            static_cast<double>(plain.usage_after.invol_csw - plain.usage_before.invol_csw) /
                static_cast<double>(plain.attempted),
            "1/op", "untraced half, " + samples(static_cast<std::size_t>(plain.attempted)));
  out.layer("obs.overhead_frac", traced.run_s / plain.run_s - 1.0, "frac",
            "traced run_s / untraced run_s - 1, same work");
  out.layer("mem.probe_gbps", probe.gbps, "GB/s",
            "triad, 3 arrays of " + std::to_string(probe.array_bytes >> 20) + " MiB, LLC " +
                std::to_string(probe.llc >> 20) + " MiB");
  out.layer("trace.coverage_frac", traced.coverage, "frac", "phase covered by request spans");
}

/// The measured part of a run: the whole quota untraced (--trace 0), or
/// half of it untraced then half traced (--trace 1).  `run_phase(parts,
/// traced)` runs 1/parts of the workload's quota.
template <class RunPhase>
auto measure(const Args& args, Tracer& tracer, Result& out, RunPhase&& run_phase) {
  using Sample = decltype(run_phase(1, false));
  tracer.set_enabled(false);
  Sample plain = run_phase(args.trace ? 2 : 1, false);
  tracer.set_enabled(args.trace);
  std::optional<Sample> traced;
  if (args.trace) traced = run_phase(2, true);
  out.attempted += plain.attempted + (traced ? traced->attempted : 0);
  out.failed += plain.failed + (traced ? traced->failed : 0);
  return std::pair<Sample, std::optional<Sample>>(std::move(plain), std::move(traced));
}

/// Builds the workload's graph, timed and traced as graph.build.
fascia::Graph build_graph(Tracer& tracer, std::vector<double>& builds, const char* dataset,
                          double scale, std::uint64_t seed) {
  Span span(tracer, "graph.build");
  const auto start = Clock::now();
  fascia::Graph graph = fascia::GraphSource::from_dataset(dataset).scale(scale).seed(seed).build();
  builds.push_back(seconds_since(start));
  return graph;
}

std::string layout_name(const fascia::ThreadLayout& layout) {
  return std::to_string(layout.outer_copies) + " outer x " +
         std::to_string(layout.inner_threads) + " inner";
}

// ---- count-skewed ------------------------------------------------------------
// One caller, back-to-back count_template: U10-2, 3 iterations,
// 2 threads, on the skewed enron-like graph (n~26k, m~145k).

void run_count_skewed(const Args& args, Tracer& tracer, Result& out) {
  constexpr int kIterations = 3;
  constexpr int kThreads = 2;
  warm_up(kThreads);
  const fascia::TreeTemplate& tmpl = fascia::catalog_entry("U10-2").tree;

  std::vector<double> setups;
  std::vector<double> builds;
  fascia::Graph graph;
  double reference = 0.0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    graph = build_graph(tracer, builds, "enron", 0.8, args.seed);
    Span span(tracer, "warm.count_template");
    const fascia::CountResult warm = fascia::count_template(
        graph, tmpl, count_options(kIterations, args.seed, kThreads, false));
    if (r > 0 && warm.estimate != reference) out.mismatch("setup references differ");
    reference = warm.estimate;
    out.meta["thread_layout"] = layout_name(warm.layout);
    setups.push_back(seconds_since(start));
  }
  out.meta["graph"] = "enron scale 0.8: n=" + std::to_string(graph.num_vertices()) +
                      " m=" + std::to_string(graph.num_edges());

  auto run_phase = [&](int parts, bool traced) {
    const fascia::CountOptions options = count_options(kIterations, args.seed, kThreads, traced);
    const int calls = quota(args, kCountCallsPerSecond) / parts;
    return timed_phase(tracer, traced, calls, [&](int i, int phase_span, Phase& p) {
      const auto start = Clock::now();
      fascia::CountResult result;
      {
        Span span(tracer, "count_template", phase_span, i);
        result = fascia::count_template(graph, tmpl, options);
      }
      const double wall = seconds_since(start);
      p.primary.add(wall);
      ++p.attempted;
      if (!result.ok() || result.run.completed_iterations < kIterations) ++p.failed;
      p.colorings += result.run.completed_iterations;
      if (result.estimate != reference) out.mismatch("count differs from setup reference");
      if (traced && result.report) {
        p.dp.add(*result.report, wall, 1, result.run.completed_iterations);
      }
    });
  };

  const auto [plain, traced] = measure(args, tracer, out, run_phase);
  if (!traced) {
    record_end_to_end(out, setups, plain, "count_template call");
  } else {
    record_traced_common(out, builds, "", plain, *traced);
    record_absent(out, kSchedMetrics);
    record_absent(out, kSvcMetrics);
  }
  check_batch_matches_count(out, args.seed);
  check_unbiased(out, args.seed);
}

// ---- profile-road ------------------------------------------------------------
// One caller, back-to-back sched::run_batch: all 11 free trees of k=7,
// 4 iterations each, 2 threads, default batch layout, on the low-degree
// road-like graph (n~109k, m~157k).

void run_profile_road(const Args& args, Tracer& tracer, Result& out) {
  constexpr int kIterations = 4;
  constexpr int kThreads = 2;
  warm_up(kThreads);
  std::vector<fascia::sched::BatchJob> jobs;
  for (const fascia::TreeTemplate& tmpl : fascia::all_free_trees(7)) {
    jobs.push_back({tmpl, kIterations});
  }
  auto options = [&](bool observe) {
    fascia::sched::BatchOptions o;
    o.seed = args.seed;
    o.num_threads = kThreads;
    o.observability.enabled = observe;
    return o;
  };
  auto estimates = [](const fascia::sched::BatchResult& result) {
    std::vector<double> values;
    for (const auto& job : result.jobs) values.push_back(job.estimate);
    return values;
  };

  std::vector<double> setups;
  std::vector<double> builds;
  fascia::Graph graph;
  std::vector<double> reference;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    graph = build_graph(tracer, builds, "road", 0.1, args.seed);
    Span span(tracer, "warm.run_batch");
    const fascia::sched::BatchResult warm = fascia::sched::run_batch(graph, jobs, options(false));
    if (r > 0 && estimates(warm) != reference) out.mismatch("setup references differ");
    reference = estimates(warm);
    out.meta["thread_layout"] = layout_name(warm.layout);
    setups.push_back(seconds_since(start));
  }
  out.meta["graph"] = "road scale 0.1: n=" + std::to_string(graph.num_vertices()) +
                      " m=" + std::to_string(graph.num_edges());

  std::vector<double> plan_ms;
  std::vector<double> round_ms;
  double requests = 0.0;
  double evaluations = 0.0;
  auto run_phase = [&](int parts, bool traced) {
    const fascia::sched::BatchOptions o = options(traced);
    const int profiles = quota(args, kProfilesPerSecond) / parts;
    return timed_phase(tracer, traced, profiles, [&](int i, int phase_span, Phase& p) {
      const auto start = Clock::now();
      fascia::sched::BatchResult result;
      {
        Span span(tracer, "run_batch", phase_span, i);
        result = fascia::sched::run_batch(graph, jobs, o);
      }
      const double wall = seconds_since(start);
      p.primary.add(wall);
      ++p.attempted;
      bool short_job = !result.ok() || result.jobs.size() != jobs.size();
      for (const auto& job : result.jobs) short_job = short_job || job.iterations < kIterations;
      if (short_job) ++p.failed;
      if (estimates(result) != reference) out.mismatch("profile differs from setup reference");
      p.colorings += result.iterations_total;
      if (traced && result.report) {
        p.dp.add(*result.report, wall, result.layout.outer_copies, result.coloring_rounds);
        plan_ms.push_back(1e3 * result.seconds_plan);
        for (double s : result.seconds_per_iteration) round_ms.push_back(1e3 * s);
        requests += static_cast<double>(result.stage_requests);
        evaluations += static_cast<double>(result.stage_evaluations);
      }
    });
  };

  const auto [plain, traced] = measure(args, tracer, out, run_phase);
  if (!traced) {
    record_end_to_end(out, setups, plain, "run_batch profile");
  } else {
    record_traced_common(out, builds, "", plain, *traced);
    out.layer("sched.plan_ms", median(plan_ms), "ms", samples(plan_ms.size()));
    out.layer("sched.round_ms", median(round_ms), "ms", samples(round_ms.size()));
    out.layer("sched.reuse_frac", requests > 0 ? 1.0 - evaluations / requests : 0.0, "frac",
              "1 - stage evaluations / stage requests");
    out.layer("sched.stage_evals",
              evaluations / static_cast<double>(std::max<std::size_t>(1, plan_ms.size())),
              "count", "per profile");
    record_absent(out, kSvcMetrics);
  }
  check_batch_matches_count(out, args.seed);
  check_unbiased(out, args.seed);
}

// ---- serve-mixed ---------------------------------------------------------------
// An in-process loopback svc::Server with the default Service::Config
// (2 workers) and two connections: a reader sending interactive U7-1
// counts against a static skewed graph, and a writer alternating
// mutate_graph (4 inserts of absent edges, 4 removals of present ones)
// with recount of a retained incremental U7-1 run on a road-like graph.
// Each job asks for 2 OpenMP threads so the two workers fill the 4
// cores without oversubscribing them, and reads run on enron x0.4
// (about 60 ms); runtime-default threads and ~25 ms reads on enron
// x0.2 each left the run-to-run spread 2-3x wider on a shared VM.

constexpr int kEditsPerDelta = 4;

std::uint64_t edge_key(fascia::VertexId u, fascia::VertexId v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
         static_cast<std::uint64_t>(std::max(u, v));
}

/// Removes kEditsPerDelta present edges and inserts as many absent
/// two-hop edges, so the graph keeps its size and road-like locality.
fascia::GraphDelta choose_delta(const fascia::Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<fascia::VertexId> vertex(0, g.num_vertices() - 1);
  auto neighbor = [&](fascia::VertexId v) {
    const auto nbrs = g.neighbors(v);
    return nbrs[std::uniform_int_distribution<std::size_t>(0, nbrs.size() - 1)(rng)];
  };
  fascia::GraphDelta delta;
  std::vector<std::uint64_t> chosen;
  auto fresh = [&](fascia::VertexId u, fascia::VertexId v) {
    const std::uint64_t key = edge_key(u, v);
    if (std::find(chosen.begin(), chosen.end(), key) != chosen.end()) return false;
    chosen.push_back(key);
    return true;
  };
  int removed = 0;
  int inserted = 0;
  for (int attempt = 0; attempt < 100000 && (removed < kEditsPerDelta ||
                                              inserted < kEditsPerDelta); ++attempt) {
    const fascia::VertexId u = vertex(rng);
    if (g.degree(u) == 0) continue;
    const fascia::VertexId w = neighbor(u);
    if (removed < kEditsPerDelta) {
      if (fresh(u, w)) {
        delta.remove(u, w);
        ++removed;
      }
      continue;
    }
    const fascia::VertexId x = neighbor(w);
    if (x != u && !g.has_edge(u, x) && fresh(u, x)) {
      delta.insert(u, x);
      ++inserted;
    }
  }
  if (removed < kEditsPerDelta || inserted < kEditsPerDelta) {
    throw std::runtime_error("could not draw a graph delta");
  }
  return delta;
}

bool reply_ok(const Json& reply) {
  if (!reply.get_bool("ok", false)) return false;
  const Json* run = reply.find("run");
  if (run == nullptr) return true;  // mutate_graph replies carry no run
  return run->get_string("status") == "completed" &&
         run->get_int("completed_iterations") >= run->get_int("requested_iterations");
}

void run_serve_mixed(const Args& args, Tracer& tracer, Result& out) {
  constexpr int kIterations = 2;
  constexpr int kThreadsPerJob = 2;
  constexpr double kReadScale = 0.4;
  warm_up(static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  const auto seed = static_cast<std::int64_t>(args.seed);

  auto read_request = [&](bool traced) {
    Json request = Json::object();
    request["op"] = "count";
    request["graph"] = "skewed";
    request["template"] = "U7-1";
    request["priority"] = "interactive";
    Json options = Json::object();
    options["iterations"] = kIterations;
    options["seed"] = seed;
    options["threads"] = kThreadsPerJob;
    if (traced) options["observability"] = true;
    request["options"] = std::move(options);
    if (traced) request["report"] = true;
    return request;
  };

  std::unique_ptr<fascia::svc::Server> server;
  std::optional<fascia::svc::Client> reader;
  std::optional<fascia::svc::Client> writer;
  fascia::Graph replica;
  std::mt19937_64 rng;
  std::vector<fascia::GraphDelta> applied;
  double reference = 0.0;
  double last_recount = 0.0;
  Json recount = Json::object();
  recount["op"] = "recount";

  // One update: mutate_graph then recount, then the benchmark's replica
  // applies the same delta (outside the update's latency).
  struct Writes {
    Latencies round_trip;  ///< mutate_graph + recount
    Latencies mutate_ms;
    Latencies recount_engine_ms;
    Latencies apply_ms;
    std::vector<Json> delta;  ///< recount replies' incremental accounting
    long failed = 0;
  };
  auto update = [&](int parent, std::int64_t request, Writes& w) {
    const fascia::GraphDelta delta = choose_delta(replica, rng);
    const auto start = Clock::now();
    bool ok = false;
    {
      Span span(tracer, "mutate_graph", parent, request);
      ok = reply_ok(writer->mutate_graph("road", fascia::svc::delta_to_json(delta), 0));
      w.mutate_ms.add(seconds_since(start));
    }
    Json reply;
    {
      Span span(tracer, "recount", parent, request);
      reply = writer->request(recount);
    }
    w.round_trip.add(seconds_since(start));
    if (!ok || !reply_ok(reply)) ++w.failed;
    last_recount = reply.get_double("estimate");
    w.recount_engine_ms.add(reply.get_double("seconds_total"));
    if (const Json* d = reply.find("delta")) w.delta.push_back(*d);
    Span span(tracer, "graph.apply", parent, request);
    const auto apply_start = Clock::now();
    replica.apply(delta);
    w.apply_ms.add(seconds_since(apply_start));
    applied.push_back(delta);
  };

  std::vector<double> setups;
  std::vector<double> builds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    reader.reset();
    writer.reset();
    server.reset();
    applied.clear();
    rng.seed(args.seed);
    const auto start = Clock::now();
    server = std::make_unique<fascia::svc::Server>(fascia::svc::Server::Config{});
    server->start();
    reader = fascia::svc::Client::connect_tcp("127.0.0.1", server->port());
    writer = fascia::svc::Client::connect_tcp("127.0.0.1", server->port());
    const auto build_start = Clock::now();
    bool loaded = false;
    {
      Span span(tracer, "graph.build");
      loaded = reader->load_graph("skewed", "enron", "", kReadScale, args.seed).get_bool("ok") &&
               writer->load_graph("road", "road", "", 0.05, args.seed).get_bool("ok");
      replica = fascia::GraphSource::from_dataset("road").scale(0.05).seed(args.seed).build();
    }
    builds.push_back(seconds_since(build_start));
    if (!loaded) throw std::runtime_error("load_graph failed");
    Span span(tracer, "warm.requests");
    const Json read = reader->request(read_request(false));
    if (!reply_ok(read)) throw std::runtime_error("warm read failed");
    if (r > 0 && read.get_double("estimate") != reference) out.mismatch("setup references differ");
    reference = read.get_double("estimate");
    Json seed_count = Json::object();
    seed_count["op"] = "count";
    seed_count["graph"] = "road";
    seed_count["template"] = "U7-1";
    seed_count["options"] = Json::object();
    seed_count["options"]["iterations"] = kIterations;
    seed_count["options"]["seed"] = seed;
    seed_count["options"]["threads"] = kThreadsPerJob;
    seed_count["options"]["incremental"] = true;
    const Json seeded = writer->request(seed_count);
    if (!reply_ok(seeded)) throw std::runtime_error("incremental count failed");
    recount["recount_of"] = seeded.get_int("job");
    Writes warm;
    update(span.id(), -1, warm);
    if (warm.failed != 0) throw std::runtime_error("warm update failed");
    setups.push_back(seconds_since(start));
  }
  out.meta["graph"] = "enron scale 0.4 (reads), road scale 0.05: n=" +
                      std::to_string(replica.num_vertices()) +
                      " m=" + std::to_string(replica.num_edges()) + " (updates)";
  out.meta["thread_layout"] =
      "2 service workers x " + std::to_string(kThreadsPerJob) + " OpenMP threads per job";

  struct Mixed : Phase {
    Writes writes;
    Latencies engine_ms;    ///< reads' reply seconds_total
    Latencies overhead_ms;  ///< reads' round trip - seconds_total
  };
  // Reader and writer run concurrently; the phase ends when both have
  // done their quota.
  auto run_phase = [&](int parts, bool traced) {
    const int reads = quota(args, kReadsPerSecond) / parts;
    const int updates = quota(args, kUpdatesPerSecond) / parts;
    Mixed m;
    const Json request = read_request(traced);
    std::vector<std::string> reader_mismatches;
    std::string reader_error;
    std::string writer_error;
    double reader_s = 0.0;
    double writer_s = 0.0;
    m.usage_before = usage_now();
    const int phase_span = traced ? tracer.begin("phase") : -1;
    const auto start = Clock::now();
    std::thread read_loop([&] {
      try {
        for (int i = 0; i < reads; ++i) {
          const auto t0 = Clock::now();
          Json reply;
          {
            Span span(tracer, "read", phase_span, i);
            reply = reader->request(request);
          }
          const double rt = seconds_since(t0);
          m.primary.add(rt);
          if (!reply_ok(reply)) ++m.failed;
          if (reply.get_double("estimate") != reference) {
            reader_mismatches.push_back("read differs from setup reference");
          }
          const Json* run = reply.find("run");
          const int done = run ? static_cast<int>(run->get_int("completed_iterations")) : 0;
          m.colorings += done;
          const double engine = reply.get_double("seconds_total");
          m.engine_ms.add(engine);
          m.overhead_ms.add(rt - engine);
          fascia::obs::RunReport report;
          const Json* doc = reply.find("report");
          if (traced && doc != nullptr && fascia::obs::RunReport::from_json(*doc, &report)) {
            m.dp.add(report, engine, 1, done);
          }
        }
        reader_s = seconds_since(start);
      } catch (const std::exception& e) {
        reader_error = e.what();
      }
    });
    std::thread write_loop([&] {
      try {
        for (int i = 0; i < updates; ++i) {
          const std::int64_t id = reads + i;
          Span span(tracer, "update", phase_span, id);
          update(span.id(), id, m.writes);
        }
        writer_s = seconds_since(start);
      } catch (const std::exception& e) {
        writer_error = e.what();
      }
    });
    read_loop.join();
    write_loop.join();
    m.run_s = seconds_since(start);
    tracer.end(phase_span);
    m.usage_after = usage_now();
    if (!reader_error.empty()) throw std::runtime_error("reader: " + reader_error);
    if (!writer_error.empty()) throw std::runtime_error("writer: " + writer_error);
    for (const std::string& what : reader_mismatches) out.mismatch(what);
    out.meta[traced ? "traced_loops_s" : "loops_s"] =
        "reader " + std::to_string(reader_s) + ", writer " + std::to_string(writer_s);
    m.attempted = reads + updates;
    m.failed += m.writes.failed;
    if (traced) {
      m.coverage = perfbench::child_coverage(tracer.spans(), static_cast<std::size_t>(phase_span));
    }
    return m;
  };

  const auto [plain, traced] = measure(args, tracer, out, run_phase);
  reader.reset();
  writer.reset();
  server.reset();

  // Reads against an in-process count on the same graph.
  const fascia::Graph skewed =
      fascia::GraphSource::from_dataset("enron").scale(kReadScale).seed(args.seed).build();
  const fascia::CountResult direct = fascia::count_template(
      skewed, fascia::catalog_entry("U7-1").tree, count_options(kIterations, args.seed, kThreadsPerJob, false));
  if (direct.estimate != reference) out.mismatch("served read differs from count_template");
  // The writer's deltas replayed on a fresh graph give the last recount.
  fascia::Graph replayed =
      fascia::GraphSource::from_dataset("road").scale(0.05).seed(args.seed).build();
  for (const fascia::GraphDelta& delta : applied) replayed.apply(delta);
  const fascia::CountResult full = fascia::count_template(
      replayed, fascia::catalog_entry("U7-1").tree, count_options(kIterations, args.seed, kThreadsPerJob, false));
  if (full.estimate != last_recount) {
    out.mismatch("final recount differs from count_template on the replayed graph");
  }
  out.meta["deltas_replayed"] = static_cast<std::int64_t>(applied.size());

  if (!traced) {
    record_end_to_end(out, setups, plain, "interactive read round trip");
    out.info.push_back({"count_p95_ms", plain.primary.p(0.95), "ms", plain.primary.note(0.95)});
    out.info.push_back({"update_p50_ms", plain.writes.round_trip.p(0.5), "ms",
                        "mutate_graph + recount, " + plain.writes.round_trip.note(0.5)});
    out.info.push_back({"update_p95_ms", plain.writes.round_trip.p(0.95), "ms",
                        plain.writes.round_trip.note(0.95)});
  } else {
    // Codec cost of the workload's own messages, timed in process.
    const Json request = read_request(false);
    std::vector<double> codec_us;
    for (int i = 0; i < 201; ++i) {
      const auto start = Clock::now();
      const fascia::svc::JobSpec spec = fascia::svc::job_spec_from_request(request);
      const std::string text = fascia::svc::count_result_to_json(direct, false).dump();
      codec_us.push_back(1e6 * seconds_since(start));
      if (spec.graph != "skewed" || text.empty()) out.mismatch("codec round trip");
    }
    const Writes& w = traced->writes;
    record_traced_common(out, builds, "two load_graph round trips + replica build, ", plain,
                         *traced);
    record_absent(out, kSchedMetrics);
    out.layer("graph.apply_ms", w.apply_ms.p(0.5), "ms",
              "replica Graph::apply, " + w.apply_ms.note(0.5));
    out.layer("svc.engine_ms", traced->engine_ms.p(0.5), "ms",
              "reads' seconds_total, " + traced->engine_ms.note(0.5));
    out.layer("svc.overhead_ms", traced->overhead_ms.p(0.5), "ms",
              "reads' round trip - seconds_total, " + traced->overhead_ms.note(0.5));
    out.layer("svc.codec_us", median(codec_us), "us",
              "job_spec_from_request + count_result_to_json, " + samples(codec_us.size()));
    out.layer("svc.mutate_ms", w.mutate_ms.p(0.5), "ms", w.mutate_ms.note(0.5));
    out.layer("svc.recount_engine_ms", w.recount_engine_ms.p(0.5), "ms",
              w.recount_engine_ms.note(0.5));
    double dirty = 0.0;
    double recomputed = 0.0;
    double copied = 0.0;
    for (const Json& d : w.delta) {
      dirty += d.get_double("dirty_fraction");
      recomputed += d.get_double("rows_recomputed");
      copied += d.get_double("rows_copied");
    }
    out.layer("incr.dirty_frac",
              dirty / static_cast<double>(std::max<std::size_t>(1, w.delta.size())), "frac",
              "mean, " + samples(w.delta.size()));
    out.layer("incr.recompute_frac",
              recomputed + copied > 0 ? recomputed / (recomputed + copied) : 0.0, "frac",
              "rows recomputed / rows touched");
  }
  check_batch_matches_count(out, args.seed);
  check_unbiased(out, args.seed);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Result out;
  out.meta["workload"] = args.workload;
  out.meta["seed"] = static_cast<std::int64_t>(args.seed);
  out.meta["commit"] = args.commit;
  out.meta["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  out.meta["omp_max_threads"] = omp_get_max_threads();
  out.meta["omp_env"] = omp_environment();
  out.meta["loadavg_start"] = load_average();
  Tracer tracer(args.trace);
  try {
    if (args.workload == "count-skewed") {
      run_count_skewed(args, tracer, out);
    } else if (args.workload == "profile-road") {
      run_profile_road(args, tracer, out);
    } else if (args.workload == "serve-mixed") {
      run_serve_mixed(args, tracer, out);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  out.meta["loadavg_end"] = load_average();

  if (args.trace) {
    for (const Metric& m : out.per_layer) {
      if (m.name == "trace.coverage_frac" && m.value < kMinSpanCoverage) {
        std::fprintf(stderr, "perfbench: request spans cover only %.3f of the traced phase\n",
                     m.value);
        return 1;
      }
    }
  }

  // Spans and metadata go to a file; the summary to stdout.
  Json dump = Json::object();
  dump["meta"] = out.meta;
  Json spans = Json::array();
  for (const perfbench::SpanRecord& s : tracer.spans()) {
    Json span = Json::object();
    span["name"] = s.name;
    span["start"] = s.start;
    span["end"] = s.end;
    span["id"] = s.id;
    span["parent"] = s.parent;
    span["request"] = s.request;
    spans.push_back(std::move(span));
  }
  dump["spans"] = std::move(spans);
  const std::string path = args.out_dir + "/perfbench-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << dump.dump(1) << "\n";

  const std::vector<Metric>& shown = args.trace ? out.per_layer : out.end_to_end;
  std::printf("perfbench %s seed=%llu trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("meta %s\n", out.meta.dump().c_str());
  std::printf("  %-26s %.6g %s\n", "fail_frac",
              out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
              "frac");
  for (const Metric& m : shown) {
    std::printf("  %-26s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  for (const Metric& m : out.info) {
    std::printf("  %-26s %.6g %s  # %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (const std::string& what : out.mismatches) {
    std::printf("MISMATCH %s\n", what.c_str());
  }

  Json result = Json::object();
  result["correct"] = out.correct;
  result["attempted"] = static_cast<std::int64_t>(out.attempted);
  result["failed"] = static_cast<std::int64_t>(out.failed);
  Json metrics = Json::object();
  for (const Metric& m : shown) {
    Json entry = Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
