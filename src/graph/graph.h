#ifndef DBIM_GRAPH_GRAPH_H_
#define DBIM_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbim {

struct ComponentSplit;

/// A plain undirected graph on vertices 0..n-1 with an edge list. Parallel
/// edges and self-loops are not stored (AddEdge deduplicates lazily via
/// Normalize). This is the currency of the combinatorial solvers; the
/// conflict graph of a database is converted into it by the measures.
class SimpleGraph {
 public:
  explicit SimpleGraph(size_t n) : n_(n) {}

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<std::pair<uint32_t, uint32_t>>& edges() const {
    return edges_;
  }

  /// Adds an undirected edge (a != b required).
  void AddEdge(uint32_t a, uint32_t b);

  /// Sorts the edge list and removes duplicates.
  void Normalize();

  /// Sorted, deduplicated adjacency lists.
  std::vector<std::vector<uint32_t>> AdjacencyLists() const;

  /// Connected components: returns (component index per vertex, number of
  /// components). Components are numbered in order of their smallest
  /// vertex.
  std::pair<std::vector<uint32_t>, size_t> Components() const;

  /// Every connected component as a relabelled subgraph, in one linear
  /// pass: vertices, then edges, are bucketed by component. Equal to
  /// InducedSubgraph(members) per component of Components(), without a
  /// whole-graph edge scan per component.
  ComponentSplit ComponentSubgraphs() const;

  /// The subgraph induced by `vertices` (relabelled 0..k-1 in the given
  /// order).
  SimpleGraph InducedSubgraph(const std::vector<uint32_t>& vertices) const;

 private:
  size_t n_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
};

/// A graph split into its connected components, each a standalone graph:
/// graphs[c] is component c with its vertices relabelled 0..k-1 in
/// ascending original order, and members[c][i] is the original vertex of
/// local vertex i. Components are numbered as by SimpleGraph::Components().
struct ComponentSplit {
  std::vector<SimpleGraph> graphs;
  std::vector<std::vector<uint32_t>> members;
};

}  // namespace dbim

#endif  // DBIM_GRAPH_GRAPH_H_
