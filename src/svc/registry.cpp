#include "svc/registry.hpp"

#include <algorithm>
#include <utility>

#include "treelet/canonical.hpp"

namespace fascia::svc {

namespace {

std::size_t permutation_bytes(const Permutation& perm) {
  return (perm.to_new.capacity() + perm.to_old.capacity()) * sizeof(VertexId);
}

std::size_t partition_bytes(const PartitionTree& tree) {
  // Rough but monotone: per-node vertex lists + canon strings + the
  // struct itself.  Partition trees are tiny next to graphs; this only
  // needs to keep the accounting honest, not exact.
  std::size_t bytes = sizeof(PartitionTree);
  for (const Subtemplate& node : tree.nodes()) {
    bytes += sizeof(Subtemplate);
    bytes += node.vertices.capacity() * sizeof(int);
    bytes += node.canon.capacity();
  }
  return bytes;
}

}  // namespace

GraphRegistry::GraphRegistry(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

void GraphRegistry::touch_locked(Entry& entry) { entry.last_use = ++tick_; }

void GraphRegistry::evict_locked(std::size_t incoming_bytes) {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ + incoming_bytes > budget_bytes_ &&
         !entries_.empty()) {
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
    resident_bytes_ -= victim->bytes;
    ++evictions_;
    let_go_locked(*victim);
    entries_.erase(victim);
  }
}

void GraphRegistry::let_go_locked(const Entry& entry) {
  // Only the registry's reference is about to drop.  A copy nobody
  // else holds dies with the entry (and, with mutex_ held, nobody can
  // take a new reference to it); any other copy stays in memory, so
  // remember it weakly for stats() and resurrection.
  if (!entry.graph || entry.graph.use_count() == 1) return;
  std::erase_if(held_, [](const HeldGraph& h) { return h.graph.expired(); });
  held_.push_back({entry.key, entry.graph, entry.bytes});
}

std::shared_ptr<const Graph> GraphRegistry::put(const std::string& name,
                                                Graph graph) {
  auto shared = std::make_shared<const Graph>(std::move(graph));
  std::size_t bytes = shared->bytes();
  const std::string key = "g:" + name;

  std::lock_guard<std::mutex> lock(mutex_);
  // Replace first (so the old copy does not count against the budget
  // while making room), dropping the graph's cached permutations too.
  const std::string perm_prefix = "p:" + name + ":";
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->key == key || it->key.compare(0, perm_prefix.size(),
                                          perm_prefix) == 0) {
      resident_bytes_ -= it->bytes;
      let_go_locked(*it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  // Reconcile against a let-go-but-held copy: if something still holds
  // a graph this name used to resolve to and the caller is re-putting
  // identical content (same CSR, labels and version), adopt the held
  // copy so the process carries one allocation, not two.  Anything
  // else — another version, or the same version reached by a different
  // delta after a reload — is admitted as the new graph it is.
  for (auto it = held_.begin(); it != held_.end();) {
    std::shared_ptr<const Graph> held = it->graph.lock();
    if (!held) {
      it = held_.erase(it);
      continue;
    }
    if (it->key == key && held->version() == shared->version() &&
        *held == *shared) {
      shared = std::move(held);
      bytes = shared->bytes();
      ++resurrections_;
      held_.erase(it);
      break;
    }
    ++it;
  }
  evict_locked(bytes);
  Entry entry;
  entry.key = key;
  entry.graph = shared;
  entry.bytes = bytes;
  touch_locked(entry);
  resident_bytes_ += bytes;
  entries_.push_back(std::move(entry));
  return shared;
}

std::shared_ptr<const Graph> GraphRegistry::get(const std::string& name) {
  const std::string key = "g:" + name;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      touch_locked(entry);
      ++hits_;
      return entry.graph;
    }
  }
  ++misses_;
  return nullptr;
}

bool GraphRegistry::contains(const std::string& name) {
  const std::string key = "g:" + name;
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.key == key; });
}

bool GraphRegistry::erase(const std::string& name) {
  const std::string key = "g:" + name;
  const std::string perm_prefix = "p:" + name + ":";
  std::lock_guard<std::mutex> lock(mutex_);
  bool found = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const bool is_graph = it->key == key;
    const bool is_perm =
        it->key.compare(0, perm_prefix.size(), perm_prefix) == 0;
    if (is_graph || is_perm) {
      found = found || is_graph;
      resident_bytes_ -= it->bytes;
      let_go_locked(*it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return found;
}

std::shared_ptr<const Permutation> GraphRegistry::reorder_of(
    const std::string& name, ReorderMode mode) {
  if (mode == ReorderMode::kNone) return nullptr;
  const std::string key =
      "p:" + name + ":" + reorder_mode_name(mode);

  std::shared_ptr<const Graph> graph;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& entry : entries_) {
      if (entry.key == key) {
        touch_locked(entry);
        ++hits_;
        return entry.perm;
      }
    }
    for (Entry& entry : entries_) {
      if (entry.key == "g:" + name) {
        graph = entry.graph;
        break;
      }
    }
    ++misses_;
  }
  if (!graph) return nullptr;

  // Compute outside the lock: the pass is O(n + m) and other sessions
  // should not stall behind it.
  auto perm = std::make_shared<const Permutation>(
      reorder_permutation(*graph, mode));
  const std::size_t bytes = permutation_bytes(*perm);

  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {  // lost a race: keep the first copy
    if (entry.key == key) return entry.perm;
  }
  evict_locked(bytes);
  Entry entry;
  entry.key = key;
  entry.perm = perm;
  entry.bytes = bytes;
  touch_locked(entry);
  resident_bytes_ += bytes;
  entries_.push_back(std::move(entry));
  return perm;
}

std::shared_ptr<const PartitionTree> GraphRegistry::partition_of(
    const TreeTemplate& tmpl, PartitionStrategy strategy, bool share_tables,
    int root) {
  std::string key = "t:" + ahu_free(tmpl);
  key += strategy == PartitionStrategy::kBalanced ? ":bal" : ":one";
  key += share_tables ? ":s" : ":u";
  key += ':';
  key += std::to_string(root);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& entry : entries_) {
      if (entry.key == key) {
        touch_locked(entry);
        ++hits_;
        return entry.part;
      }
    }
    ++misses_;
  }

  auto part = std::make_shared<const PartitionTree>(
      partition_template(tmpl, strategy, share_tables, root));
  const std::size_t bytes = partition_bytes(*part);

  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.key == key) return entry.part;
  }
  evict_locked(bytes);
  Entry entry;
  entry.key = key;
  entry.part = part;
  entry.bytes = bytes;
  touch_locked(entry);
  resident_bytes_ += bytes;
  entries_.push_back(std::move(entry));
  return part;
}

GraphRegistry::Stats GraphRegistry::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.resident_bytes = resident_bytes_;
  out.budget_bytes = budget_bytes_;
  for (const Entry& entry : entries_) {
    if (entry.graph) ++out.graphs;
    if (entry.perm) ++out.permutations;
    if (entry.part) ++out.partitions;
  }
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.resurrections = resurrections_;
  std::erase_if(held_, [](const HeldGraph& h) { return h.graph.expired(); });
  for (const HeldGraph& held : held_) {
    ++out.held_graphs;
    out.held_bytes += held.bytes;
  }
  return out;
}

std::vector<std::string> GraphRegistry::graph_names() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const Entry& entry : entries_) {
    if (entry.graph) out.push_back(entry.key.substr(2));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fascia::svc
