#include "measures/repair_measures.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "graph/vertex_cover.h"
#include "lp/covering.h"

namespace dbim {

namespace {

// The exact cover of the live vertices: kernelized vertex cover from the
// memoized half-integral LP for binary Sigma, else the covering ILP with
// the memoized relaxation at its root.
VertexCoverResult ExactCover(const RepairInstance& inst,
                             const RepairMeasureOptions& repair_options) {
  if (inst.binary()) {
    VertexCoverOptions options;
    options.deadline_seconds = repair_options.deadline_seconds;
    return KernelizedVertexCover(inst.components, inst.weights, inst.lp.x,
                                 options);
  }
  CoveringOptions options;
  options.deadline_seconds = repair_options.deadline_seconds;
  CoveringResult ilp = SolveCoveringIlp(inst.covering, options, &inst.lp);
  VertexCoverResult result;
  result.value = ilp.value;
  result.in_cover = std::move(ilp.chosen);
  result.optimal = ilp.optimal;
  result.bb_nodes = ilp.bb_nodes;
  return result;
}

const LpSolution& OptimalLp(MeasureContext& context) {
  const LpSolution& lp = context.repair().lp;
  DBIM_CHECK_MSG(lp.status == LpStatus::kOptimal,
                 "covering LP unsolved (status %d)",
                 static_cast<int>(lp.status));
  return lp;
}

}  // namespace

double MinRepairMeasure::Evaluate(MeasureContext& context) const {
  const RepairInstance& inst = context.repair();
  return inst.forced_cost + ExactCover(inst, options_).value;
}

std::vector<FactId> MinRepairMeasure::OptimalRepair(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();
  const RepairInstance& inst = context.repair();
  std::vector<FactId> repair;
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (cg.self_inconsistent()[v]) repair.push_back(cg.fact_of(v));
  }
  const std::vector<bool> chosen = ExactCover(inst, options_).in_cover;
  for (uint32_t i = 0; i < inst.live.size(); ++i) {
    if (chosen[i]) repair.push_back(cg.fact_of(inst.live[i]));
  }
  std::sort(repair.begin(), repair.end());
  return repair;
}

double LinRepairMeasure::Evaluate(MeasureContext& context) const {
  return context.repair().forced_cost + OptimalLp(context).objective;
}

std::vector<std::pair<FactId, double>> LinRepairMeasure::FractionalSolution(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();
  const RepairInstance& inst = context.repair();
  const std::vector<double>& x = OptimalLp(context).x;
  std::vector<std::pair<FactId, double>> solution;
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (cg.self_inconsistent()[v]) {
      solution.emplace_back(cg.fact_of(v), 1.0);
    }
  }
  for (uint32_t i = 0; i < inst.live.size(); ++i) {
    solution.emplace_back(cg.fact_of(inst.live[i]), x[i]);
  }
  std::sort(solution.begin(), solution.end());
  return solution;
}

}  // namespace dbim
