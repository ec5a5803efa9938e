#include "analytics/significance.hpp"

#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace fascia::analytics {
namespace {

TEST(Significance, StructureAndDeterminism) {
  const Graph g = largest_component(chung_lu(250, 750, 2.2, 50, 9));
  CountOptions options;
  options.sampling.iterations = 30;
  options.execution.threads = 1;
  options.sampling.seed = 3;
  const auto a = motif_significance(g, 4, 4, options);
  EXPECT_EQ(a.k, 4);
  EXPECT_EQ(a.trees.size(), 2u);  // path-4 and star-4
  EXPECT_EQ(a.ensemble_size, 4);
  ASSERT_EQ(a.z_scores.size(), 2u);

  const auto b = motif_significance(g, 4, 4, options);
  EXPECT_EQ(a.real_counts, b.real_counts);
  EXPECT_EQ(a.z_scores, b.z_scores);
}

TEST(Significance, RandomGraphHasNoStrongMotifs) {
  // An ER graph *is* its own null model (up to degree-sequence detail):
  // z-scores should be modest.
  const Graph g = largest_component(erdos_renyi_gnm(300, 900, 5));
  CountOptions options;
  options.sampling.iterations = 60;
  options.execution.threads = 1;
  const auto sig = motif_significance(g, 4, 6, options);
  for (double z : sig.z_scores) {
    EXPECT_LT(std::abs(z), 12.0);
  }
}

TEST(Significance, PlantedStructureDetected) {
  // Degree-preserving rewiring destroys clustering but keeps degrees:
  // a graph assembled from dense clusters shows path/star imbalance
  // versus its rewired ensemble.  Use a strongly clustered contact
  // network — its abundance of short cycles depresses tree counts
  // relative to the randomized version, giving |z| >> 0 somewhere.
  const Graph g = largest_component(contact_network(600, 12.0, 4));
  CountOptions options;
  options.sampling.iterations = 60;
  options.execution.threads = 1;
  const auto sig = motif_significance(g, 4, 6, options);
  double max_abs_z = 0.0;
  for (double z : sig.z_scores) max_abs_z = std::max(max_abs_z, std::abs(z));
  EXPECT_GT(max_abs_z, 3.0);
}

TEST(Significance, Validation) {
  const Graph g = erdos_renyi_gnm(50, 100, 1);
  CountOptions options;
  options.sampling.iterations = 2;
  EXPECT_THROW(motif_significance(g, 4, 1, options), std::invalid_argument);
  EXPECT_THROW(motif_significance(g, 4, 4, options, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace fascia::analytics
