// End-to-end pipelines mirroring the paper's experiments at test scale:
// dataset -> counter -> error vs exact; motif profiles across networks;
// GDD estimation vs exact GDD agreement.

#include <gtest/gtest.h>

#include "analytics/gdd.hpp"
#include "analytics/profiles.hpp"
#include "core/counter.hpp"
#include "core/motifs.hpp"
#include "exact/backtrack.hpp"
#include "graph/datasets.hpp"
#include "graph/labels.hpp"
#include "treelet/catalog.hpp"
#include "util/stats.hpp"

namespace fascia {
namespace {

TEST(Integration, ErrorFallsWithIterationsOnCircuit) {
  // Fig. 10's shape at test scale: running-estimate error after i
  // iterations, decreasing to a small value.
  const Graph g = make_dataset("circuit", 1.0, 7);
  const TreeTemplate& tree = catalog_entry("U5-1").tree;
  const double exact = exact::count_embeddings(g, tree);
  ASSERT_GT(exact, 0.0);

  CountOptions options;
  options.sampling.iterations = 600;
  options.execution.threads = 1;
  options.sampling.seed = 5;
  const CountResult result = count_template(g, tree, options);
  const auto running = result.running_estimates();
  const double late_error = relative_error(running.back(), exact);
  EXPECT_LT(late_error, 0.1);
}

TEST(Integration, MotifProfilesDistinguishTopologies) {
  // Fig. 14's discriminative claim at test scale: a circuit-like
  // near-tree and a PPI-like power-law net have more different motif
  // profiles than two power-law nets of different sizes.
  CountOptions options;
  options.sampling.iterations = 120;
  options.execution.threads = 1;

  const auto hpylori =
      count_all_treelets(make_dataset("hpylori", 1.0, 3), 5, options)
          .relative_frequencies();
  const auto celegans =
      count_all_treelets(make_dataset("celegans", 1.0, 3), 5, options)
          .relative_frequencies();
  const auto circuit =
      count_all_treelets(make_dataset("circuit", 1.0, 3), 5, options)
          .relative_frequencies();

  const double ppi_vs_ppi =
      analytics::profile_log_distance(hpylori, celegans);
  const double ppi_vs_circuit =
      analytics::profile_log_distance(hpylori, circuit);
  EXPECT_LT(ppi_vs_ppi, ppi_vs_circuit);
}

TEST(Integration, GddAgreementImprovesWithIterations) {
  // Fig. 16's shape: agreement between estimated and exact GDD rises
  // with iteration count.
  const Graph g = make_dataset("hpylori", 1.0, 11);
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();
  const auto exact_degrees = exact::per_vertex_counts(g, tree, orbit);

  CountOptions few;
  few.sampling.iterations = 1;
  few.execution.threads = 1;
  few.sampling.seed = 2;
  CountOptions many = few;
  many.sampling.iterations = 300;

  const auto degrees_few =
      graphlet_degrees(g, tree, orbit, few).vertex_counts;
  const auto degrees_many =
      graphlet_degrees(g, tree, orbit, many).vertex_counts;

  const double agreement_few =
      analytics::gdd_agreement(degrees_few, exact_degrees);
  const double agreement_many =
      analytics::gdd_agreement(degrees_many, exact_degrees);
  EXPECT_GT(agreement_many, agreement_few);
  EXPECT_GT(agreement_many, 0.8);
}

TEST(Integration, LabeledPipelineFasterSearchSpace) {
  // Fig. 4's mechanism at test scale: labeling shrinks table
  // occupancy, visible through peak table bytes.
  Graph g = make_dataset("ecoli", 1.0, 13);
  const TreeTemplate& base = catalog_entry("U5-2").tree;

  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.threads = 1;
  const CountResult unlabeled = count_template(g, base, options);

  Graph labeled_graph = g;
  assign_demographic_labels(labeled_graph, 17);
  TreeTemplate labeled_tree = base;
  labeled_tree.set_labels({0, 1, 2, 3, 4});
  const CountResult labeled =
      count_template(labeled_graph, labeled_tree, options);
  EXPECT_LT(labeled.peak_table_bytes, unlabeled.peak_table_bytes);
}

TEST(Integration, SeedReproducibilityAcrossPipelines) {
  const Graph g = make_dataset("celegans", 1.0, 29);
  CountOptions options;
  options.sampling.iterations = 3;
  options.execution.threads = 1;
  options.sampling.seed = 99;
  const auto first = count_template(g, catalog_entry("U7-2").tree, options);
  const auto second = count_template(g, catalog_entry("U7-2").tree, options);
  EXPECT_EQ(first.per_iteration, second.per_iteration);
  EXPECT_EQ(first.estimate, second.estimate);
}

}  // namespace
}  // namespace fascia
