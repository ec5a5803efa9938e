// Tests of the benchmark's own arithmetic (span.hpp): percentiles, the
// support rule for reporting a tail, interval coverage, self time.
// Exits 1 on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "span.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.15g, want %.15g\n", what, got, want);
    ++failures;
  }
}

void expect_true(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

using perfbench::Interval;
using perfbench::SpanRecord;

void test_percentile() {
  expect_near(perfbench::percentile({}, 0.5), 0.0, "empty sample");
  expect_near(perfbench::percentile({7.0}, 0.95), 7.0, "single sample");
  expect_near(perfbench::median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expect_near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
  // numpy.percentile(range(1, 101), 95) == 95.05
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near(perfbench::percentile(hundred, 0.95), 95.05, "p95 of 1..100");
  expect_near(perfbench::percentile(hundred, 0.0), 1.0, "p0 is the minimum");
  expect_near(perfbench::percentile(hundred, 1.0), 100.0, "p100 is the maximum");
}

void test_percentile_support() {
  expect_true(perfbench::percentile_supported(200, 0.95), "p95 of 200");
  expect_true(!perfbench::percentile_supported(199, 0.95), "p95 of 199");
  expect_true(perfbench::percentile_supported(20, 0.5), "p50 of 20");
  expect_true(!perfbench::percentile_supported(25, 0.95), "p95 of 25");
}

void test_coverage() {
  expect_near(perfbench::covered_length({}, 0.0, 1.0), 0.0, "nothing covered");
  // Overlapping intervals count once; disjoint ones add.
  expect_near(perfbench::covered_length({{0.0, 2.0}, {1.0, 3.0}, {5.0, 6.0}},
                                        0.0, 10.0),
              4.0, "union of overlaps");
  // Clipped to the window; fully outside intervals vanish.
  expect_near(perfbench::covered_length({{-1.0, 1.0}, {9.0, 12.0}, {20.0, 21.0}},
                                        0.0, 10.0),
              2.0, "clipped to window");
  // Nested and touching intervals.
  expect_near(perfbench::covered_length({{0.0, 4.0}, {1.0, 2.0}, {4.0, 5.0}},
                                        0.0, 10.0),
              5.0, "nested and touching");
}

void test_self_time() {
  // root [0,10] with children [1,4] and [3,6] (overlap once) and a
  // grandchild inside the first child that must not count for root.
  std::vector<SpanRecord> spans = {
      {"root", 0.0, 10.0, 0, -1, -1},
      {"a", 1.0, 4.0, 1, 0, 7},
      {"b", 3.0, 6.0, 2, 0, 7},
      {"a.inner", 1.5, 3.5, 3, 1, 7},
  };
  expect_near(perfbench::self_time(spans, 0), 5.0, "root self time");
  expect_near(perfbench::self_time(spans, 1), 1.0, "child self time");
  expect_near(perfbench::self_time(spans, 3), 2.0, "leaf self time");
  expect_near(perfbench::child_coverage(spans, 0), 0.5, "root coverage");
  // A child that outlives its parent (another thread ended late)
  // counts only inside the parent's interval.
  spans.push_back({"late", 9.0, 12.0, 4, 0, 8});
  expect_near(perfbench::self_time(spans, 0), 4.0, "clipped late child");
}

void test_tracer() {
  perfbench::Tracer off(false);
  expect_true(off.begin("x") == -1 && off.spans().empty(), "disabled tracer");
  perfbench::Tracer on(true);
  {
    perfbench::Span outer(on, "outer");
    perfbench::Span inner(on, "inner", outer.id(), 3);
  }
  const std::vector<SpanRecord> spans = on.spans();
  expect_true(spans.size() == 2 && spans[1].parent == spans[0].id &&
                  spans[1].request == 3,
              "parent and request recorded");
  expect_true(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end,
              "child nested in parent");
  on.set_enabled(false);
  { perfbench::Span paused(on, "paused"); }
  expect_true(on.spans().size() == 2, "paused tracer records nothing");
}

}  // namespace

int main() {
  test_percentile();
  test_percentile_support();
  test_coverage();
  test_self_time();
  test_tracer();
  if (failures != 0) return EXIT_FAILURE;
  std::puts("perfbench_span_test: all passed");
  return EXIT_SUCCESS;
}
