#include "core/accuracy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/counter.hpp"
#include "exact/backtrack.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "treelet/catalog.hpp"

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(60, 160, 71));
  return g;
}

TEST(Accuracy, TheoreticalIterationsFormula) {
  // e^k * ln(1/delta) / eps^2.
  EXPECT_NEAR(theoretical_iterations(5, 0.1, 0.05),
              std::exp(5.0) * std::log(20.0) / 0.01, 1e-6);
  // Tighter epsilon or delta -> more iterations.
  EXPECT_GT(theoretical_iterations(5, 0.05, 0.05),
            theoretical_iterations(5, 0.1, 0.05));
  EXPECT_GT(theoretical_iterations(5, 0.1, 0.01),
            theoretical_iterations(5, 0.1, 0.05));
  EXPECT_GT(theoretical_iterations(7, 0.1, 0.05),
            theoretical_iterations(5, 0.1, 0.05));
}

TEST(Accuracy, TheoreticalIterationsValidation) {
  EXPECT_THROW(theoretical_iterations(5, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(theoretical_iterations(5, 0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(theoretical_iterations(5, 0.1, 1.0), std::invalid_argument);
}

TEST(Accuracy, PracticalIterationsFarBelowTheoretical) {
  // The paper's §III-A claim, made concrete: 3 iterations reach ~1 %
  // error on a graph where the bound demands tens of thousands.
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(3);
  const double exact = testing::brute_force_maps(g, tree) / 2.0;
  CountOptions options;
  options.sampling.iterations = 25;
  options.execution.threads = 1;
  const CountResult result = count_template(g, tree, options);
  const double error =
      std::abs(result.estimate - exact) / exact;
  EXPECT_LT(error, 0.1);
  EXPECT_GT(theoretical_iterations(3, 0.1, 0.05), 1000.0);
}

TEST(Accuracy, StderrShrinksWithIterations) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions options;
  options.execution.threads = 1;
  options.sampling.iterations = 20;
  const double few = estimate_relative_stderr(
      count_template(g, tree, options));
  options.sampling.iterations = 320;
  const double many = estimate_relative_stderr(
      count_template(g, tree, options));
  EXPECT_LT(many, few);
  // ~sqrt(16) = 4x reduction expected; allow slack for sampling noise.
  EXPECT_LT(many, few / 2.0);
}

TEST(Accuracy, StderrDegenerateCases) {
  CountResult result;
  EXPECT_DOUBLE_EQ(estimate_stderr(result), 0.0);
  result.per_iteration = {5.0};
  result.estimate = 5.0;
  EXPECT_DOUBLE_EQ(estimate_stderr(result), 0.0);
  result.per_iteration = {0.0, 0.0};
  result.estimate = 0.0;
  EXPECT_DOUBLE_EQ(estimate_relative_stderr(result), 0.0);
}

TEST(Accuracy, AdaptiveStopsEarlyOnEasyInstances) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(3);
  CountOptions options;
  options.execution.threads = 1;
  const AdaptiveResult adaptive =
      adaptive_count(g, tree, /*target=*/0.05, /*max=*/2000, options,
                     /*batch=*/8);
  EXPECT_TRUE(adaptive.converged);
  EXPECT_LT(adaptive.iterations_used, 2000);
  EXPECT_LE(adaptive.relative_stderr, 0.05);
  EXPECT_EQ(static_cast<int>(adaptive.count.per_iteration.size()),
            adaptive.iterations_used);

  // And the answer is right.
  const double exact = testing::brute_force_maps(g, tree) / 2.0;
  EXPECT_NEAR(adaptive.count.estimate, exact, exact * 0.2);
}

TEST(Accuracy, AdaptiveHitsCapOnImpossibleTargets) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions options;
  options.execution.threads = 1;
  const AdaptiveResult adaptive =
      adaptive_count(g, tree, /*target=*/1e-9, /*max=*/20, options, 8);
  EXPECT_FALSE(adaptive.converged);
  EXPECT_EQ(adaptive.iterations_used, 20);
}

TEST(Accuracy, AdaptiveDeterministicInSeed) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-1").tree;
  CountOptions options;
  options.execution.threads = 1;
  options.sampling.seed = 5;
  const auto a = adaptive_count(g, tree, 0.1, 200, options, 16);
  const auto b = adaptive_count(g, tree, 0.1, 200, options, 16);
  EXPECT_EQ(a.iterations_used, b.iterations_used);
  EXPECT_EQ(a.count.per_iteration, b.count.per_iteration);
}

TEST(Accuracy, AdaptiveValidation) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(3);
  EXPECT_THROW(adaptive_count(g, tree, 0.0, 100), std::invalid_argument);
  EXPECT_THROW(adaptive_count(g, tree, 0.1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fascia
