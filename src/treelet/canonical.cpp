#include "treelet/canonical.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/error.hpp"

namespace fascia {

namespace {

/// Recursive AHU with an optional vertex mask (-1 parent sentinel).
/// `allowed[v] == 0` vertices are treated as absent.
std::string ahu_recurse(const TreeTemplate& t, int v, int parent,
                        const std::vector<char>& allowed) {
  std::vector<std::string> children;
  for (int u : t.neighbors(v)) {
    if (u != parent && allowed[static_cast<std::size_t>(u)]) {
      children.push_back(ahu_recurse(t, u, v, allowed));
    }
  }
  std::sort(children.begin(), children.end());
  std::string out = "(";
  if (t.has_labels()) {
    out += std::to_string(static_cast<int>(t.label(v)));
    out += ':';
  }
  for (const auto& child : children) out += child;
  out += ')';
  return out;
}

std::uint64_t rooted_aut_recurse(const TreeTemplate& t, int v, int parent,
                                 std::string& canon_out) {
  // Returns |Aut| of the subtree rooted at v, and its canonical string.
  std::vector<std::pair<std::string, std::uint64_t>> children;
  for (int u : t.neighbors(v)) {
    if (u == parent) continue;
    std::string child_canon;
    const std::uint64_t child_aut = rooted_aut_recurse(t, u, v, child_canon);
    children.emplace_back(std::move(child_canon), child_aut);
  }
  std::sort(children.begin(), children.end());

  std::uint64_t aut = 1;
  std::size_t i = 0;
  while (i < children.size()) {
    std::size_t j = i;
    while (j < children.size() && children[j].first == children[i].first) ++j;
    // group of (j - i) identical child shapes: they permute freely, and
    // each contributes its own internal automorphisms.
    for (std::size_t g = 2; g <= j - i; ++g) {
      aut *= static_cast<std::uint64_t>(g);
    }
    for (std::size_t c = i; c < j; ++c) aut *= children[c].second;
    i = j;
  }

  canon_out = '(';
  if (t.has_labels()) {
    canon_out += std::to_string(static_cast<int>(t.label(v)));
    canon_out += ':';
  }
  for (const auto& [canon, _] : children) canon_out += canon;
  canon_out += ')';
  return aut;
}

}  // namespace

std::string ahu_rooted(const TreeTemplate& t, int root) {
  std::vector<char> allowed(static_cast<std::size_t>(t.size()), 1);
  return ahu_recurse(t, root, -1, allowed);
}

std::string ahu_rooted_subtree(const TreeTemplate& t,
                               const std::vector<int>& vertices, int root) {
  std::vector<char> allowed(static_cast<std::size_t>(t.size()), 0);
  for (int v : vertices) allowed[static_cast<std::size_t>(v)] = 1;
  if (!allowed[static_cast<std::size_t>(root)]) {
    throw usage_error("ahu_rooted_subtree: root not in subset");
  }
  // Prefix with the subtree size so strings from different sizes never
  // collide (parenthesis structure already implies it, but explicit is
  // safer for table keying).
  return std::to_string(vertices.size()) + "|" +
         ahu_recurse(t, root, -1, allowed);
}

std::vector<int> centroids(const TreeTemplate& t) {
  const int k = t.size();
  if (k == 1) return {0};
  // Iteratively strip leaves.
  std::vector<int> degree(static_cast<std::size_t>(k));
  std::vector<int> frontier;
  for (int v = 0; v < k; ++v) {
    degree[static_cast<std::size_t>(v)] = t.degree(v);
    if (degree[static_cast<std::size_t>(v)] == 1) frontier.push_back(v);
  }
  int remaining = k;
  std::vector<int> next;
  while (remaining > 2) {
    next.clear();
    for (int v : frontier) {
      --remaining;
      for (int u : t.neighbors(v)) {
        if (--degree[static_cast<std::size_t>(u)] == 1) next.push_back(u);
      }
      degree[static_cast<std::size_t>(v)] = 0;
    }
    frontier.swap(next);
    if (frontier.empty()) break;  // degenerate; cannot happen for trees
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

std::string ahu_free(const TreeTemplate& t) {
  const auto centers = centroids(t);
  std::string best;
  for (int c : centers) {
    std::string canon = ahu_rooted(t, c);
    if (best.empty() || canon < best) best = std::move(canon);
  }
  return std::to_string(centers.size()) + "|" + best;
}

std::uint64_t rooted_automorphisms(const TreeTemplate& t, int root) {
  std::string canon;
  return rooted_aut_recurse(t, root, -1, canon);
}

std::uint64_t automorphisms(const TreeTemplate& t) {
  const auto centers = centroids(t);
  if (centers.size() == 1) {
    return rooted_automorphisms(t, centers[0]);
  }
  // Two centroids joined by an edge: automorphisms preserve the central
  // edge; they act independently on the two halves and may swap them
  // when the halves are isomorphic as rooted trees.
  // Passing the opposite centroid as `parent` restricts the recursion
  // to one half of the tree, rooted at its centroid.
  const int c1 = centers[0], c2 = centers[1];
  std::string canon1, canon2;
  const std::uint64_t aut1 = rooted_aut_recurse(t, c1, c2, canon1);
  const std::uint64_t aut2 = rooted_aut_recurse(t, c2, c1, canon2);
  std::uint64_t total = aut1 * aut2;
  if (canon1 == canon2) total *= 2;
  return total;
}

std::vector<int> vertex_orbits(const TreeTemplate& t) {
  const int k = t.size();
  std::map<std::string, int> representative;
  std::vector<int> orbit(static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    const std::string canon = ahu_rooted(t, v);
    auto [it, inserted] = representative.emplace(canon, v);
    orbit[static_cast<std::size_t>(v)] = it->second;
  }
  return orbit;
}

std::uint64_t vertex_stabilizer(const TreeTemplate& t, int v) {
  const auto orbit = vertex_orbits(t);
  std::uint64_t orbit_size = 0;
  for (int u = 0; u < t.size(); ++u) {
    if (orbit[static_cast<std::size_t>(u)] ==
        orbit[static_cast<std::size_t>(v)]) {
      ++orbit_size;
    }
  }
  return automorphisms(t) / orbit_size;
}

bool isomorphic(const TreeTemplate& a, const TreeTemplate& b) {
  if (a.size() != b.size()) return false;
  if (a.has_labels() != b.has_labels()) return false;
  return ahu_free(a) == ahu_free(b);
}

}  // namespace fascia
