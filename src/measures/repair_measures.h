#ifndef DBIM_MEASURES_REPAIR_MEASURES_H_
#define DBIM_MEASURES_REPAIR_MEASURES_H_

#include <string>
#include <vector>

#include "measures/measure.h"

namespace dbim {

struct RepairMeasureOptions {
  /// Wall-clock budget for the exact branch & bound of I_R; an expired
  /// search returns the best cover found (an upper bound). 0 disables.
  double deadline_seconds = 0.0;
};

/// I_R under the subset repair system R_subset — the minimum total cost of
/// tuple deletions reaching consistency (cardinality/optimal repairs). The
/// only classical measure satisfying all four properties; NP-hard in
/// general (paper Theorem 1 pins the frontier already for single EGDs).
///
/// Computation: self-inconsistent facts are forced deletions; the rest is a
/// minimum weighted vertex cover of the conflict graph, or a covering ILP
/// when minimal witnesses have size >= 3. Both start from the context's
/// memoized repair LP (MeasureContext::repair()), the one I_lin_R reads:
/// the vertex cover kernelizes with its half-integral solution
/// (Nemhauser–Trotter) and branches only on each component's ½-kernel,
/// which is usually empty; the ILP takes it as its root relaxation.
class MinRepairMeasure : public InconsistencyMeasure {
 public:
  explicit MinRepairMeasure(RepairMeasureOptions options = {})
      : options_(options) {}

  std::string name() const override { return "I_R"; }
  double Evaluate(MeasureContext& context) const override;

  /// Also exposes one optimal repair: the fact ids whose deletion reaches
  /// consistency at minimum cost.
  std::vector<FactId> OptimalRepair(MeasureContext& context) const;

 private:
  RepairMeasureOptions options_;
};

/// I_lin_R — the paper's new measure (Section 5.2): the optimum of the LP
/// relaxation of the minimum-repair ILP of Figure 2. Rational (satisfies
/// all four properties, Theorem 2) and computable in polynomial time for
/// arbitrary DC sets.
///
/// Computation: self-inconsistent facts contribute their full cost (their
/// covering constraint forces x = 1); binary witnesses form the fractional
/// weighted vertex-cover LP, solved exactly via max-flow on the bipartite
/// double cover; hyperedge witnesses fall back to the simplex. The solve
/// is the context's memoized repair LP, shared with I_R, so whichever of
/// the two a report evaluates first pays for it.
class LinRepairMeasure : public InconsistencyMeasure {
 public:
  std::string name() const override { return "I_lin_R"; }
  double Evaluate(MeasureContext& context) const override;

  /// The optimal fractional deletion x_i per problematic fact (pairs of
  /// fact id and LP value). Used by the repair-prioritization example.
  std::vector<std::pair<FactId, double>> FractionalSolution(
      MeasureContext& context) const;
};

}  // namespace dbim

#endif  // DBIM_MEASURES_REPAIR_MEASURES_H_
