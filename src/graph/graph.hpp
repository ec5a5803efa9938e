#pragma once
// Undirected graph in CSR (compressed sparse row) form.
//
// This is the substrate every other module consumes.  Invariants
// enforced by the builder:
//   * no self loops, no duplicate edges,
//   * adjacency of every vertex sorted ascending,
//   * symmetric: u in adj(v)  <=>  v in adj(u).
// Vertices are dense 0-based int32 ids; the largest network in the
// paper (31.2M edges) fits comfortably.  Edge *endpoints* are counted
// in int64 since 2m can exceed 2^31 on --full workloads.
//
// Construction freezes the structure; the ONE post-construction
// mutation point is apply(GraphDelta) — a validated edge batch that
// rebuilds the CSR in place (O(n + m + d log d)) with the vertex set
// and labels unchanged, and bumps version() so holders of derived
// state (cached reorder permutations, retained DP tables) can detect
// staleness.  A failed apply throws before any mutation.
//
// Optional vertex labels support the paper's labeled-template
// experiments (Fig. 4): small integer attributes, at most 255 distinct.

#include <cstdint>
#include <span>
#include <vector>

namespace fascia {

using VertexId = std::int32_t;
using EdgeCount = std::int64_t;

class GraphDelta;

class Graph {
 public:
  Graph() = default;

  /// Takes ownership of CSR arrays.  offsets.size() == n+1,
  /// adjacency.size() == offsets.back() == 2m.  The builder is the
  /// intended producer; this constructor validates only cheap
  /// structural properties (sizes, monotone offsets).
  Graph(std::vector<EdgeCount> offsets, std::vector<VertexId> adjacency);

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges (adjacency stores both directions).
  [[nodiscard]] EdgeCount num_edges() const noexcept {
    return static_cast<EdgeCount>(adjacency_.size()) / 2;
  }

  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {adjacency_.data() + begin, end - begin};
  }

  [[nodiscard]] EdgeCount degree(VertexId v) const noexcept {
    return offsets_[static_cast<std::size_t>(v) + 1] -
           offsets_[static_cast<std::size_t>(v)];
  }

  /// Largest vertex degree, kept current by the constructor and
  /// apply() (O(1); reports read it on every run).
  [[nodiscard]] EdgeCount max_degree() const noexcept { return max_degree_; }
  [[nodiscard]] double avg_degree() const noexcept;

  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;

  // ---- mutation (graph/delta.hpp) ---------------------------------------

  /// Applies a validated edge batch in place: insertions must be
  /// absent, deletions present, endpoints within [0, n) — anything
  /// else throws (Error(kUsage)/(kBadInput), see delta.hpp) BEFORE any
  /// mutation.  The vertex set and labels are unchanged; adjacency
  /// invariants (sorted, symmetric, loop/dup-free) are preserved;
  /// version() increments by one.
  void apply(const GraphDelta& delta);

  /// Mutation counter: 0 at construction, +1 per successful apply().
  /// Derived caches (reorder permutations, retained DP state) key on
  /// it to detect staleness.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // ---- labels -----------------------------------------------------------
  [[nodiscard]] bool has_labels() const noexcept { return !labels_.empty(); }
  [[nodiscard]] int num_label_values() const noexcept { return num_label_values_; }
  [[nodiscard]] std::uint8_t label(VertexId v) const noexcept {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::span<const std::uint8_t> labels() const noexcept {
    return labels_;
  }

  /// Attaches per-vertex labels; values must be < num_values <= 255.
  void set_labels(std::vector<std::uint8_t> labels, int num_values);
  void clear_labels() noexcept;

  /// Logical memory held by the CSR arrays (for reports).
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Same CSR (offsets, adjacency), labels and version.
  bool operator==(const Graph&) const = default;

 private:
  std::vector<EdgeCount> offsets_;
  std::vector<VertexId> adjacency_;
  EdgeCount max_degree_ = 0;
  std::vector<std::uint8_t> labels_;
  int num_label_values_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace fascia
