#ifndef DBIM_GRAPH_VERTEX_COVER_H_
#define DBIM_GRAPH_VERTEX_COVER_H_

#include <cstddef>
#include <vector>

#include "common/timer.h"
#include "graph/graph.h"

namespace dbim {

struct VertexCoverOptions {
  /// Wall-clock budget; expired searches return the best cover found so far
  /// with `optimal == false`. 0 disables the deadline.
  double deadline_seconds = 0.0;
};

struct VertexCoverResult {
  /// Total weight of the returned cover.
  double value = 0.0;

  /// Cover membership per vertex.
  std::vector<bool> in_cover;

  /// Whether the value is proven optimal.
  bool optimal = true;

  /// Branch-and-bound nodes explored (diagnostics / ablation bench).
  size_t bb_nodes = 0;
};

/// Exact minimum weighted vertex cover. This is the paper's I_R for denial
/// constraints whose minimal inconsistent subsets all have size two (FDs and
/// all the experiment DC sets), on the conflict graph.
///
/// Pipeline: one fractional LP over the whole graph (FractionalVertexCover),
/// then KernelizedVertexCover on its connected components.
VertexCoverResult MinWeightVertexCover(const SimpleGraph& g,
                                       const std::vector<double>& weights,
                                       const VertexCoverOptions& options = {});

/// Exact minimum weighted vertex cover from a half-integral optimum `x` of
/// the fractional LP over the graph that `components` splits
/// (g.ComponentSubgraphs()). Nemhauser–Trotter: the 1-vertices are in some
/// optimal cover and the 0-vertices in none, so per component only the
/// half-integral kernel is branched on — branch & bound on a
/// maximum-degree vertex with the fractional LP as lower bound and a greedy
/// cover as incumbent. The value sums component by component: first the
/// 1-vertices in member order, then the kernel's cover.
VertexCoverResult KernelizedVertexCover(const ComponentSplit& components,
                                        const std::vector<double>& weights,
                                        const std::vector<double>& x,
                                        const VertexCoverOptions& options = {});

}  // namespace dbim

#endif  // DBIM_GRAPH_VERTEX_COVER_H_
