#include "measures/repair_instance.h"

#include <algorithm>

#include "graph/fractional_vc.h"

namespace dbim {

RepairInstance BuildRepairInstance(const ConflictGraph& cg) {
  RepairInstance inst;
  inst.relabel.assign(cg.num_vertices(), UINT32_MAX);
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (cg.self_inconsistent()[v]) {
      inst.forced_cost += cg.weights()[v];
    } else {
      inst.relabel[v] = static_cast<uint32_t>(inst.live.size());
      inst.live.push_back(v);
      inst.weights.push_back(cg.weights()[v]);
    }
  }
  inst.graph = SimpleGraph(inst.live.size());
  for (const auto& [a, b] : cg.edges()) {
    // Minimality guarantees neither endpoint is self-inconsistent.
    inst.graph.AddEdge(inst.relabel[a], inst.relabel[b]);
  }
  inst.graph.Normalize();
  for (const auto& he : cg.hyperedges()) {
    std::vector<uint32_t> e;
    e.reserve(he.size());
    for (const uint32_t v : he) e.push_back(inst.relabel[v]);
    std::sort(e.begin(), e.end());
    inst.hyper.push_back(std::move(e));
  }
  // MI order is maintenance order on a session handle and discovery order
  // on a fresh detection. The simplex's row order decides its floating-
  // point path and which of several tied optimal covers I_R reports, so
  // the rows are put in one canonical order (the edges already are, by
  // Normalize): values stay a function of (Sigma, D) alone.
  std::sort(inst.hyper.begin(), inst.hyper.end());

  if (inst.binary()) {
    inst.components = inst.graph.ComponentSubgraphs();
    FractionalVcResult fvc = FractionalVertexCover(inst.graph, inst.weights);
    inst.lp.status = LpStatus::kOptimal;
    inst.lp.objective = fvc.value;
    inst.lp.x = std::move(fvc.x);
    return inst;
  }
  inst.covering.costs = inst.weights;
  for (const auto& [a, b] : inst.graph.edges()) {
    inst.covering.sets.push_back({a, b});
  }
  for (const auto& e : inst.hyper) inst.covering.sets.push_back(e);
  inst.lp = SolveCoveringLpRelaxation(inst.covering);
  return inst;
}

}  // namespace dbim
