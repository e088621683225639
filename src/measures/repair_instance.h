#ifndef DBIM_MEASURES_REPAIR_INSTANCE_H_
#define DBIM_MEASURES_REPAIR_INSTANCE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "lp/covering.h"
#include "lp/simplex.h"
#include "violations/conflict_graph.h"

namespace dbim {

/// The minimum-repair ILP of the paper's Figure 2 for one (Sigma, D),
/// together with one optimal solution of its LP relaxation. A
/// MeasureContext builds it once (MeasureContext::repair()) and I_R,
/// I_lin_R and their solution accessors all read it, so a report solves
/// the repair LP once.
///
/// Self-inconsistent facts are forced deletions (their singleton witness
/// forces x = 1); the rest is a covering structure over the remaining
/// problematic facts, the "live" vertices.
struct RepairInstance {
  double forced_cost = 0.0;
  std::vector<uint32_t> live;     // conflict-graph vertices to cover
  std::vector<uint32_t> relabel;  // cg vertex -> live index
  std::vector<double> weights;    // per live vertex
  SimpleGraph graph{0};           // binary witnesses, normalized
  // Size >= 3 witnesses, each sorted, in lexicographic order.
  std::vector<std::vector<uint32_t>> hyper;

  /// Binary Sigma only (no hyperedges): the components of `graph`.
  ComponentSplit components;

  /// Sigma with hyperedges only: the covering ILP over the live vertices,
  /// edges first, then hyperedges.
  CoveringProblem covering;

  /// One optimal LP solution over the live vertices. Binary Sigma: the
  /// half-integral FractionalVertexCover of `graph` (max-flow), which is
  /// also I_R's kernelization oracle. Otherwise:
  /// SolveCoveringLpRelaxation(covering), which is also the covering ILP's
  /// root relaxation.
  LpSolution lp;

  bool binary() const { return hyper.empty(); }
};

RepairInstance BuildRepairInstance(const ConflictGraph& cg);

}  // namespace dbim

#endif  // DBIM_MEASURES_REPAIR_INSTANCE_H_
