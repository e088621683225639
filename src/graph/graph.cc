#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/check.h"

namespace dbim {

void SimpleGraph::AddEdge(uint32_t a, uint32_t b) {
  DBIM_CHECK(a != b);
  DBIM_CHECK(a < n_ && b < n_);
  if (a > b) std::swap(a, b);
  edges_.emplace_back(a, b);
}

void SimpleGraph::Normalize() {
  if (!std::is_sorted(edges_.begin(), edges_.end())) {
    std::sort(edges_.begin(), edges_.end());
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

std::vector<std::vector<uint32_t>> SimpleGraph::AdjacencyLists() const {
  std::vector<std::vector<uint32_t>> adj(n_);
  for (const auto& [a, b] : edges_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

std::pair<std::vector<uint32_t>, size_t> SimpleGraph::Components() const {
  // Union-find that always links the larger root under the smaller, so
  // every root is its component's smallest vertex and one ascending scan
  // numbers components by it.
  std::vector<uint32_t> parent(n_);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const auto& [a, b] : edges_) {
    const uint32_t ra = find(a);
    const uint32_t rb = find(b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  std::vector<uint32_t> comp(n_);
  size_t count = 0;
  for (uint32_t v = 0; v < n_; ++v) {
    const uint32_t root = find(v);
    comp[v] = root == v ? static_cast<uint32_t>(count++) : comp[root];
  }
  return {std::move(comp), count};
}

ComponentSplit SimpleGraph::ComponentSubgraphs() const {
  const auto [comp, count] = Components();
  ComponentSplit split;
  split.members.resize(count);
  std::vector<uint32_t> local(n_);
  for (uint32_t v = 0; v < n_; ++v) {
    std::vector<uint32_t>& members = split.members[comp[v]];
    local[v] = static_cast<uint32_t>(members.size());
    members.push_back(v);
  }
  split.graphs.reserve(count);
  for (const auto& members : split.members) {
    split.graphs.emplace_back(members.size());
  }
  // Relabelling is monotone within a component, so a sorted edge list
  // stays sorted in every bucket.
  for (const auto& [a, b] : edges_) {
    split.graphs[comp[a]].edges_.emplace_back(local[a], local[b]);
  }
  for (SimpleGraph& g : split.graphs) g.Normalize();
  return split;
}

SimpleGraph SimpleGraph::InducedSubgraph(
    const std::vector<uint32_t>& vertices) const {
  std::unordered_map<uint32_t, uint32_t> relabel;
  relabel.reserve(vertices.size());
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    relabel.emplace(vertices[i], i);
  }
  SimpleGraph out(vertices.size());
  for (const auto& [a, b] : edges_) {
    const auto ia = relabel.find(a);
    const auto ib = relabel.find(b);
    if (ia != relabel.end() && ib != relabel.end()) {
      out.AddEdge(ia->second, ib->second);
    }
  }
  out.Normalize();
  return out;
}

}  // namespace dbim
