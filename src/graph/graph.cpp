#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/delta.hpp"

namespace fascia {

Graph::Graph(std::vector<EdgeCount> offsets, std::vector<VertexId> adjacency)
    : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {
  if (offsets_.empty()) {
    throw std::invalid_argument("Graph: offsets must have at least 1 entry");
  }
  if (offsets_.front() != 0 ||
      offsets_.back() != static_cast<EdgeCount>(adjacency_.size())) {
    throw std::invalid_argument("Graph: offsets do not frame adjacency");
  }
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (degree(v) < 0) {
      throw std::invalid_argument("Graph: offsets must be non-decreasing");
    }
    max_degree_ = std::max(max_degree_, degree(v));
  }
}

double Graph::avg_degree() const noexcept {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(num_vertices());
}

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices()) {
    return false;
  }
  // Probe the smaller adjacency list; both are sorted.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void Graph::apply(const GraphDelta& delta) {
  delta.validate(*this);  // throws before any mutation
  if (delta.empty()) {
    ++version_;
    return;
  }

  const VertexId n = num_vertices();
  // Per-vertex edit lists: the neighbors each vertex gains and loses.
  // Sorted per vertex because the batch lists are re-sorted here and
  // each edge contributes both directions.
  std::vector<std::vector<VertexId>> gains(static_cast<std::size_t>(n));
  std::vector<std::vector<VertexId>> losses(static_cast<std::size_t>(n));
  for (const auto& [u, v] : delta.insertions()) {
    gains[static_cast<std::size_t>(u)].push_back(v);
    gains[static_cast<std::size_t>(v)].push_back(u);
  }
  for (const auto& [u, v] : delta.deletions()) {
    losses[static_cast<std::size_t>(u)].push_back(v);
    losses[static_cast<std::size_t>(v)].push_back(u);
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(gains[static_cast<std::size_t>(v)].begin(),
              gains[static_cast<std::size_t>(v)].end());
    std::sort(losses[static_cast<std::size_t>(v)].begin(),
              losses[static_cast<std::size_t>(v)].end());
  }

  std::vector<EdgeCount> offsets(static_cast<std::size_t>(n) + 1, 0);
  EdgeCount max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    const EdgeCount new_degree =
        degree(v) +
        static_cast<EdgeCount>(gains[static_cast<std::size_t>(v)].size()) -
        static_cast<EdgeCount>(losses[static_cast<std::size_t>(v)].size());
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] + new_degree;
    max_degree = std::max(max_degree, new_degree);
  }
  std::vector<VertexId> adjacency(static_cast<std::size_t>(offsets.back()));
  for (VertexId v = 0; v < n; ++v) {
    const auto old_nbrs = neighbors(v);
    const auto& gain = gains[static_cast<std::size_t>(v)];
    const auto& loss = losses[static_cast<std::size_t>(v)];
    auto* out = adjacency.data() +
                static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    if (gain.empty() && loss.empty()) {
      out = std::copy(old_nbrs.begin(), old_nbrs.end(), out);
      continue;
    }
    // Merge the surviving old neighbors (old minus losses; both
    // sorted) with the gained ones, keeping the list sorted.
    std::vector<VertexId> kept;
    kept.reserve(old_nbrs.size());
    std::set_difference(old_nbrs.begin(), old_nbrs.end(), loss.begin(),
                        loss.end(), std::back_inserter(kept));
    std::merge(kept.begin(), kept.end(), gain.begin(), gain.end(), out);
  }
  offsets_ = std::move(offsets);
  adjacency_ = std::move(adjacency);
  max_degree_ = max_degree;
  ++version_;
}

void Graph::set_labels(std::vector<std::uint8_t> labels, int num_values) {
  if (static_cast<VertexId>(labels.size()) != num_vertices()) {
    throw std::invalid_argument("Graph: label array size != n");
  }
  if (num_values < 1 || num_values > 255) {
    throw std::invalid_argument("Graph: need 1 <= num_values <= 255");
  }
  for (std::uint8_t value : labels) {
    if (value >= num_values) {
      throw std::invalid_argument("Graph: label value out of range");
    }
  }
  labels_ = std::move(labels);
  num_label_values_ = num_values;
}

void Graph::clear_labels() noexcept {
  labels_.clear();
  labels_.shrink_to_fit();
  num_label_values_ = 0;
}

std::size_t Graph::bytes() const noexcept {
  return offsets_.size() * sizeof(EdgeCount) +
         adjacency_.size() * sizeof(VertexId) +
         labels_.size() * sizeof(std::uint8_t);
}

}  // namespace fascia
