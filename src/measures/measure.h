#ifndef DBIM_MEASURES_MEASURE_H_
#define DBIM_MEASURES_MEASURE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "measures/repair_instance.h"
#include "relational/database.h"
#include "violations/conflict_graph.h"
#include "violations/detector.h"
#include "violations/violation.h"

namespace dbim {

class IncrementalViolationIndex;

/// Shared per-(Sigma, D) computation state. Detecting violations dominates
/// the cost of most measures (the paper observes the SQL self-join dominates
/// for large datasets); the context computes MI_Sigma(D), the conflict
/// graph and the repair instance once and lets every measure reuse them.
/// The repair instance carries one optimal solution of the repair LP, so
/// I_R (which kernelizes with it) and I_lin_R (which is its value) share a
/// single solve per report.
///
/// Three sources of MI:
///  * detection-backed (detector, db): one FindViolations pass on first
///    use;
///  * ViolationSet-backed (detector, db, violations): a precomputed MI set,
///    used as-is;
///  * index-backed (detector, index): a session handle's incrementally
///    maintained IncrementalViolationIndex, read in place. The counts come
///    from the index's counters in O(1), conflict_graph() is built straight
///    from its live subsets, and violations() is a lazy Snapshot() that
///    only consumers of the subsets themselves (Shapley blame) pay for;
///    the default registry never calls it.
///    The index is borrowed, not copied: the context is valid only while
///    the caller holds the lock that serializes the index's Apply (the
///    handle mutex, in MeasureSession::EvaluateState), and must not outlive
///    it. The context is not copyable (its std::once_flag members are not).
///
/// The count accessors (num_minimal_subsets() ... num_problematic_facts())
/// answer the same numbers on every source; the basic measures and session
/// reports read them instead of violations().
///
/// Thread safety: the lazy members memoize through std::call_once, so
/// concurrent measure evaluations on one shared context race neither on
/// first materialization nor afterwards — once set, they are only ever
/// read. Everything else a measure reaches through the context is const:
/// detection, the index's const accessors, ids()/deletion_cost()/pool() on
/// the database, and the graph accessors. (The Database's lazily cached
/// row-major fact(id) view is NOT part of that const surface and must not
/// be called concurrently; no registry measure uses it.)
class MeasureContext {
 public:
  MeasureContext(const ViolationDetector& detector, const Database& db)
      : detector_(detector), db_(db) {}

  /// Context over a precomputed MI set — no detection pass runs; measures
  /// evaluate against `violations` as-is.
  MeasureContext(const ViolationDetector& detector, const Database& db,
                 ViolationSet violations)
      : detector_(detector), db_(db), violations_(std::move(violations)) {}

  /// Context over an incrementally maintained index (see above: valid only
  /// while the index is not mutated). No MI set is copied.
  MeasureContext(const ViolationDetector& detector,
                 const IncrementalViolationIndex& index);

  const Database& db() const { return db_; }
  const ViolationDetector& detector() const { return detector_; }

  /// MI_Sigma(D), computed on first use (a Snapshot() when index-backed).
  const ViolationSet& violations();

  /// |MI_Sigma(D)|.
  size_t num_minimal_subsets();
  /// Minimal-violation derivations (see ViolationSet).
  size_t num_minimal_violations();
  /// Whether MI_Sigma(D) is empty.
  bool empty();
  /// Whether detection stopped early (never for an index-backed context).
  bool truncated();
  /// Number of problematic facts: the index's counter, or the vertex count
  /// of conflict_graph().
  size_t num_problematic_facts();

  /// Conflict structure of the database, computed on first use.
  const ConflictGraph& conflict_graph();

  /// The repair instance of conflict_graph() with one optimal solution of
  /// its LP relaxation, computed on first use.
  const RepairInstance& repair();

  /// Eagerly computes conflict_graph() (and, unless index-backed, the
  /// violations() it is built from) on the calling thread, so a caller
  /// that times measures one by one does not charge the graph build to the
  /// first graph consumer. An index-backed context does not snapshot here.
  /// The repair instance stays lazy: the first repair measure evaluated
  /// pays for it.
  void Materialize();

 private:
  const ViolationDetector& detector_;
  const Database& db_;
  const IncrementalViolationIndex* index_ = nullptr;
  std::once_flag violations_once_;
  std::once_flag conflict_graph_once_;
  std::once_flag repair_once_;
  std::optional<ViolationSet> violations_;
  std::optional<ConflictGraph> conflict_graph_;
  std::optional<RepairInstance> repair_;
};

/// An inconsistency measure I(Sigma, D) -> [0, inf) (paper Section 3). The
/// constraint set Sigma lives in the ViolationDetector; implementations are
/// pure functions of the context.
///
/// The two standard requirements hold for every implementation here:
/// I(Sigma, D) = 0 whenever D |= Sigma, and invariance under logical
/// equivalence of Sigma (all measures depend on Sigma only through its
/// violation witnesses, which equivalent constraint sets share).
class InconsistencyMeasure {
 public:
  virtual ~InconsistencyMeasure() = default;

  /// Short identifier, e.g. "I_MI".
  virtual std::string name() const = 0;

  /// Evaluates on a prepared context.
  virtual double Evaluate(MeasureContext& context) const = 0;

  /// Convenience: builds a throwaway context. This prices in violation
  /// detection, matching how the paper times each measure end to end.
  double EvaluateFresh(const ViolationDetector& detector,
                       const Database& db) const {
    MeasureContext context(detector, db);
    return Evaluate(context);
  }

  /// Whether the value is exact for hyperedge witnesses (minimal
  /// inconsistent subsets of size >= 3) or only defined for binary ones.
  virtual bool SupportsHyperedges() const { return true; }
};

}  // namespace dbim

#endif  // DBIM_MEASURES_MEASURE_H_
