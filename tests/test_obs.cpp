// Observability layer (DESIGN.md §10): metrics registry semantics
// (including the cross-thread shard merge), trace span nesting,
// RunReport schema round-trips, and the two load-bearing invariants —
// estimates are bit-identical with observability on or off, and the
// grouped options API (builder, validate) behaves coherently.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/counter.hpp"
#include "core/mixed_counter.hpp"
#include "core/triangle.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace fascia {
namespace {

/// Every test that flips the global switch restores "off" on exit so
/// suites stay order-independent (count_template latches the switch on
/// when options.observability.enabled and never unlatches it).
struct ObsOff {
  ~ObsOff() { obs::set_enabled(false); }
};

Graph test_graph() { return testing::complete_graph(10); }

CountOptions base_options() {
  CountOptions options;
  options.sampling.iterations = 4;
  options.sampling.seed = 42;
  options.execution.threads = 1;
  return options;
}

// ---- metrics registry ----------------------------------------------------

TEST(ObsRegistry, CounterGaugeHistogramRecordAndRead) {
  ObsOff off;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const obs::Metric counter("test.reg.counter", obs::InstrumentKind::kCounter);
  const obs::Metric gauge("test.reg.gauge", obs::InstrumentKind::kGauge);
  const obs::Metric hist("test.reg.hist",
                         obs::InstrumentKind::kValueHistogram);

  counter.add();
  counter.add(2.0);
  gauge.set(5.0);
  gauge.set(7.0);
  hist.observe(0.5);
  hist.observe(8.0);

  EXPECT_DOUBLE_EQ(obs::Registry::global().read("test.reg.counter").value,
                   3.0);
  EXPECT_DOUBLE_EQ(obs::Registry::global().read("test.reg.gauge").value, 7.0);
  const auto snap = obs::Registry::global().read("test.reg.hist");
  EXPECT_EQ(snap.hist.count, 2u);
  EXPECT_DOUBLE_EQ(snap.hist.sum, 8.5);
  EXPECT_DOUBLE_EQ(snap.hist.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.hist.max, 8.0);
}

TEST(ObsRegistry, DisabledRecordsNothing) {
  ObsOff off;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const obs::Metric counter("test.reg.off", obs::InstrumentKind::kCounter);
  obs::set_enabled(false);
  counter.add();
  counter.add();
  obs::set_enabled(true);
  EXPECT_DOUBLE_EQ(obs::Registry::global().read("test.reg.off").value, 0.0);
}

TEST(ObsRegistry, ResetZeroesAndAbsentNameReadsZero) {
  ObsOff off;
  obs::set_enabled(true);
  const obs::Metric counter("test.reg.reset", obs::InstrumentKind::kCounter);
  counter.add(9.0);
  obs::Registry::global().reset();
  EXPECT_DOUBLE_EQ(obs::Registry::global().read("test.reg.reset").value, 0.0);
  const auto absent = obs::Registry::global().read("test.reg.never-created");
  EXPECT_DOUBLE_EQ(absent.value, 0.0);
  EXPECT_EQ(absent.hist.count, 0u);
}

#ifdef _OPENMP
TEST(ObsRegistry, ShardsMergeAcrossOpenMPThreads) {
  ObsOff off;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const obs::Metric counter("test.reg.omp.counter",
                            obs::InstrumentKind::kCounter);
  const obs::Metric hist("test.reg.omp.hist",
                         obs::InstrumentKind::kValueHistogram);
  constexpr int kRecords = 4000;
  double expected_sum = 0.0;
#pragma omp parallel for reduction(+ : expected_sum)
  for (int i = 0; i < kRecords; ++i) {
    counter.add();
    const double v = static_cast<double>(i % 7 + 1);
    hist.observe(v);
    expected_sum += v;
  }
  EXPECT_DOUBLE_EQ(obs::Registry::global().read("test.reg.omp.counter").value,
                   static_cast<double>(kRecords));
  const auto snap = obs::Registry::global().read("test.reg.omp.hist");
  EXPECT_EQ(snap.hist.count, static_cast<std::uint64_t>(kRecords));
  EXPECT_DOUBLE_EQ(snap.hist.sum, expected_sum);
  EXPECT_DOUBLE_EQ(snap.hist.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.hist.max, 7.0);
}
#endif  // _OPENMP

TEST(ObsRegistry, BucketFloorInvertsBucket) {
  for (std::size_t b = 1; b + 1 < obs::kHistogramBuckets; ++b) {
    const double floor = obs::histogram_bucket_floor(b);
    EXPECT_EQ(obs::histogram_bucket(floor), b) << "bucket " << b;
    EXPECT_EQ(obs::histogram_bucket(floor * 1.5), b) << "bucket " << b;
  }
}

TEST(ObsRegistry, ScrapeJsonListsInstruments) {
  ObsOff off;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const obs::Metric counter("test.reg.json", obs::InstrumentKind::kCounter);
  counter.add(4.0);
  const std::string text = obs::Registry::global().scrape_json().dump(2);
  EXPECT_NE(text.find("\"test.reg.json\""), std::string::npos);
  ASSERT_TRUE(obs::Json::parse(text).has_value());
}

// ---- trace spans ---------------------------------------------------------

TEST(ObsTrace, NestedSpansRecordInnerFirst) {
  ObsOff off;
  obs::set_enabled(true);
  obs::reset_trace();
  {
    FASCIA_TRACE("outer-span", 1);
    {
      FASCIA_TRACE("inner-span", 2, 3, "detail-text");
    }
  }
  EXPECT_EQ(obs::trace_recorded(), 2u);
  EXPECT_EQ(obs::trace_dropped(), 0u);
  obs::TraceEvent events[4];
  ASSERT_EQ(obs::trace_events(events, 4), 2u);
  // Spans land in the ring when they close, so the inner one is first.
  EXPECT_STREQ(events[0].name, "inner-span");
  EXPECT_EQ(events[0].arg0, 2);
  EXPECT_EQ(events[0].arg1, 3);
  EXPECT_STREQ(events[0].detail, "detail-text");
  EXPECT_STREQ(events[1].name, "outer-span");
  EXPECT_EQ(events[1].arg0, 1);
  // The outer span encloses the inner one in wall time.
  EXPECT_GE(events[1].wall_ns, events[0].wall_ns);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ObsOff off;
  obs::set_enabled(true);
  obs::reset_trace();
  obs::set_enabled(false);
  {
    FASCIA_TRACE("never-recorded");
  }
  EXPECT_EQ(obs::trace_recorded(), 0u);
}

TEST(ObsTrace, ChromeTraceJsonParses) {
  ObsOff off;
  obs::set_enabled(true);
  obs::reset_trace();
  {
    FASCIA_TRACE("chrome-span", 11);
  }
  const std::string text = obs::chrome_trace_json();
  const auto doc = obs::Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("chrome-span"), std::string::npos);
}

// ---- RunReport schema ----------------------------------------------------

obs::RunReport full_report() {
  obs::RunReport report;
  report.kind = "count_template";
  report.label = "round-trip";
  report.options = {{"sampling.iterations", "4"}, {"execution.table", "compact"}};
  report.graph = {100, 400, 17, true};
  report.tmpl = {7, 2, 12};
  report.sampling.requested_iterations = 4;
  report.sampling.completed_iterations = 3;
  report.sampling.num_colors = 7;
  report.sampling.seed = 42;
  report.sampling.estimate = 123.5;
  report.sampling.relative_stderr = 0.01;
  report.sampling.colorful_probability = 0.06;
  report.sampling.automorphisms = 2;
  report.sampling.trajectory = {120.0, 122.0, 123.5};
  report.timing.total_seconds = 1.25;
  report.timing.plan_seconds = 0.0625;
  report.timing.reorder_seconds = 0.25;
  report.timing.per_iteration_seconds = {0.5, 0.25, 0.25};
  report.memory.planned_peak_bytes = 1 << 20;
  report.memory.observed_peak_bytes = 1 << 19;
  report.memory.table = "compact";
  report.memory.degradations = {"hash-fallback"};
  report.threads = {2, 4, 8};
  report.run.status = "deadline";
  report.run.resumed = true;
  report.run.resumed_iterations = 2;
  report.run.checkpoints_written = 1;
  obs::ReportStage stage;
  stage.node = 3;
  stage.kernel = "pair";
  stage.table = "compact";
  stage.passes = 4;
  stage.seconds = 0.125;
  stage.candidates = 100.0;
  stage.survivors = 60.0;
  stage.macs = 4000.0;
  stage.parent_size = 2;
  stage.active_size = 1;
  report.stages.push_back(stage);
  obs::ReportJob job;
  job.name = "U7-1";
  job.estimate = 123.5;
  job.relative_stderr = 0.01;
  job.iterations = 3;
  job.converged = true;
  report.jobs.push_back(job);
  return report;
}

TEST(ObsReport, RoundTripsByteIdentically) {
  const obs::RunReport report = full_report();
  const std::string text = report.to_json_string();
  obs::RunReport parsed;
  std::string error;
  ASSERT_TRUE(obs::RunReport::from_json_string(text, &parsed, &error))
      << error;
  EXPECT_EQ(parsed.to_json_string(), text);
}

TEST(ObsReport, WrongSchemaVersionRejected) {
  std::string text = full_report().to_json_string();
  const std::string want = "\"schema_version\": " +
                           std::to_string(obs::kSchemaVersion);
  const auto at = text.find(want);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, want.size(), "\"schema_version\": 999");
  obs::RunReport parsed;
  std::string error;
  EXPECT_FALSE(obs::RunReport::from_json_string(text, &parsed, &error));
  EXPECT_FALSE(error.empty());
}

// ---- reports attached to real runs ---------------------------------------

TEST(ObsReport, CountTemplateReportMatchesResult) {
  ObsOff off;
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(5);
  CountOptions options = base_options();
  options.observability.enabled = true;
  const CountResult result = count_template(g, tree, options);

  ASSERT_NE(result.report, nullptr);
  const obs::RunReport& report = *result.report;
  EXPECT_EQ(report.kind, "count_template");
  EXPECT_DOUBLE_EQ(report.sampling.estimate, result.estimate);
  EXPECT_EQ(report.sampling.completed_iterations, 4);
  EXPECT_EQ(report.graph.vertices, 10);
  EXPECT_EQ(report.tmpl.vertices, 5);
  EXPECT_EQ(report.sampling.trajectory, result.running_estimates());
  EXPECT_EQ(report.run.status, "completed");
  // collect_stages defaults on: the DP's per-stage detail is present
  // and covers every subtemplate pass.
  EXPECT_FALSE(report.stages.empty());
  int passes = 0;
  for (const obs::ReportStage& stage : report.stages) {
    EXPECT_FALSE(stage.kernel.empty());
    EXPECT_EQ(stage.table, "compact");
    passes += stage.passes;
  }
  EXPECT_GT(passes, 0);
  // The outcome accessors see the same document.
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.status(), RunStatus::kCompleted);
  EXPECT_NE(result.report_json().find("\"schema_version\""),
            std::string::npos);
}

TEST(ObsReport, EstimatesBitIdenticalObsOnAndOff) {
  ObsOff off;
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::star(5);
  CountOptions options = base_options();

  obs::set_enabled(false);
  const CountResult plain = count_template(g, tree, options);

  CountOptions observed = options;
  observed.observability.enabled = true;
  const CountResult traced = count_template(g, tree, observed);

  ASSERT_EQ(plain.per_iteration.size(), traced.per_iteration.size());
  for (std::size_t i = 0; i < plain.per_iteration.size(); ++i) {
    EXPECT_EQ(plain.per_iteration[i], traced.per_iteration[i]) << i;
  }
  EXPECT_EQ(plain.estimate, traced.estimate);
}

TEST(ObsReport, EstimatesBitIdenticalAcrossLayoutsWithObsOn) {
  ObsOff off;
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(6);
  std::vector<CountResult> runs;
  for (int copies : {1, 0, 2}) {
    CountOptions options = base_options();
    options.execution.outer_copies = copies;
    options.execution.threads = 4;
    options.observability.enabled = true;
    runs.push_back(count_template(g, tree, options));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].per_iteration.size(), runs[r].per_iteration.size());
    for (std::size_t i = 0; i < runs[0].per_iteration.size(); ++i) {
      EXPECT_EQ(runs[0].per_iteration[i], runs[r].per_iteration[i])
          << "layout " << r << " iteration " << i;
    }
    // The attached reports agree on everything but wall time.
    ASSERT_NE(runs[r].report, nullptr);
    EXPECT_EQ(runs[0].report->sampling.trajectory,
              runs[r].report->sampling.trajectory);
    EXPECT_EQ(runs[0].report->sampling.estimate,
              runs[r].report->sampling.estimate);
  }
}

TEST(ObsReport, CheckpointWritesMatchRegistryCounter) {
  ObsOff off;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const std::string path = ::testing::TempDir() + "obs_ckpt.bin";
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(5);
  CountOptions options = base_options();
  options.sampling.iterations = 6;
  options.run.checkpoint_path = path;
  options.run.checkpoint_every = 2;
  options.observability.enabled = true;
  const CountResult result = count_template(g, tree, options);

  ASSERT_NE(result.report, nullptr);
  EXPECT_GT(result.report->run.checkpoints_written, 0);
  EXPECT_DOUBLE_EQ(
      obs::Registry::global().read("checkpoint.writes").value,
      static_cast<double>(result.report->run.checkpoints_written));
  std::remove(path.c_str());
}

// ---- options API: builder, validate, deprecated spellings ----------------

TEST(ObsOptions, BuilderBuildsAndValidates) {
  const CountOptions options = CountOptions::builder()
                                   .iterations(8)
                                   .colors(6)
                                   .seed(99)
                                   .table(TableKind::kHash)
                                   .threads(4)
                                   .outer_copies(2)
                                   .label("builder-test")
                                   .build();
  EXPECT_EQ(options.sampling.iterations, 8);
  EXPECT_EQ(options.sampling.num_colors, 6);
  EXPECT_EQ(options.sampling.seed, 99u);
  EXPECT_EQ(options.execution.table, TableKind::kHash);
  EXPECT_EQ(options.execution.outer_copies, 2);
  EXPECT_EQ(options.observability.label, "builder-test");
}

TEST(ObsOptions, ValidateRejectsIncoherentCombinations) {
  // A negative copy count.
  EXPECT_THROW(CountOptions::builder().outer_copies(-1).build(), Error);
  // outer_copies beyond the pinned thread count.
  EXPECT_THROW(CountOptions::builder()
                   .threads(2)
                   .outer_copies(4)
                   .build(),
               Error);
  // resume without a checkpoint path.
  {
    CountOptions options;
    options.run.resume = true;
    EXPECT_THROW(options.validate(), Error);
  }
  // negative thread count.
  EXPECT_THROW(CountOptions::builder().threads(-1).build(), Error);
}

TEST(ObsOptions, GroupedOptionsCopyIndependently) {
  // The flat [[deprecated]] alias spellings are gone; grouped options
  // are plain value types whose copies are fully independent.
  CountOptions options;
  options.sampling.iterations = 5;
  CountOptions copy = options;
  copy.sampling.iterations = 9;
  EXPECT_EQ(copy.sampling.iterations, 9);
  EXPECT_EQ(options.sampling.iterations, 5);
}

// ---- entry points that must reject reorder -------------------------------

TEST(ObsOptions, TrianglesRejectReorder) {
  const Graph g = test_graph();
  CountOptions options = base_options();
  options.execution.reorder = ReorderMode::kDegree;
  EXPECT_THROW(count_triangles(g, options), Error);
}

TEST(ObsOptions, NonTreeMixedRejectsReorder) {
  const Graph g = test_graph();
  // A paw (triangle + pendant edge) is not a tree, so the request
  // would reach the reorder-less mixed DP.
  const MixedTemplate paw =
      MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  CountOptions options = base_options();
  options.execution.reorder = ReorderMode::kBfs;
  EXPECT_THROW(count_mixed_template(g, paw, options), Error);
}

// ---- unified graphlet_degrees signature ----------------------------------

TEST(ObsOptions, GraphletDegreesOptionsOverloadMatchesExplicitRoot) {
  ObsOff off;
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::star(4);
  CountOptions options = base_options();

  const CountResult explicit_root = graphlet_degrees(g, tree, 0, options);
  CountOptions rooted = options;
  rooted.root = 0;
  const CountResult via_options = graphlet_degrees(g, tree, rooted);

  EXPECT_EQ(explicit_root.vertex_counts, via_options.vertex_counts);
  EXPECT_EQ(explicit_root.estimate, via_options.estimate);
  ASSERT_NE(via_options.report, nullptr);
  EXPECT_EQ(via_options.report->kind, "graphlet_degrees");
}

TEST(ObsOptions, GraphletDegreesOptionsOverloadRequiresRoot) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::star(4);
  EXPECT_THROW(graphlet_degrees(g, tree, base_options()), Error);
}

}  // namespace
}  // namespace fascia
