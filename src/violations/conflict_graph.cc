#include "violations/conflict_graph.h"

#include <algorithm>

#include "common/check.h"

namespace dbim {

ConflictGraph::ConflictGraph(const Database& db,
                             std::vector<FactId> problematic,
                             size_t num_subsets)
    : fact_of_(std::move(problematic)),
      self_inconsistent_(fact_of_.size(), false) {
  weights_.reserve(fact_of_.size());
  for (const FactId id : fact_of_) weights_.push_back(db.deletion_cost(id));
  edges_.reserve(num_subsets);
}

void ConflictGraph::AddSubset(const std::vector<FactId>& subset) {
  if (subset.size() == 1) {
    const uint32_t v = vertex_of(subset[0]);
    if (!self_inconsistent_[v]) {
      self_inconsistent_[v] = true;
      ++num_self_inconsistent_;
    }
  } else if (subset.size() == 2) {
    edges_.emplace_back(vertex_of(subset[0]), vertex_of(subset[1]));
  } else {
    std::vector<uint32_t> he;
    he.reserve(subset.size());
    for (const FactId id : subset) he.push_back(vertex_of(id));
    hyperedges_.push_back(std::move(he));
  }
}

ConflictGraph ConflictGraph::Build(const Database& db,
                                   const ViolationSet& violations) {
  return FromSubsets(db, violations.ProblematicFacts(),
                     violations.num_minimal_subsets(), [&](auto&& visit) {
                       for (const auto& subset :
                            violations.minimal_subsets()) {
                         visit(subset);
                       }
                     });
}

uint32_t ConflictGraph::vertex_of(FactId id) const {
  const auto it = std::lower_bound(fact_of_.begin(), fact_of_.end(), id);
  DBIM_CHECK_MSG(it != fact_of_.end() && *it == id,
                 "fact %u is not problematic", id);
  return static_cast<uint32_t>(it - fact_of_.begin());
}

std::vector<std::vector<uint32_t>> ConflictGraph::AdjacencyLists() const {
  std::vector<std::vector<uint32_t>> adj(num_vertices());
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

}  // namespace dbim
