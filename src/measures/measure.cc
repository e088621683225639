#include "measures/measure.h"

#include "violations/incremental.h"

namespace dbim {

MeasureContext::MeasureContext(const ViolationDetector& detector,
                               const IncrementalViolationIndex& index)
    : detector_(detector), db_(index.db()), index_(&index) {}

const ViolationSet& MeasureContext::violations() {
  std::call_once(violations_once_, [&] {
    if (violations_) return;
    violations_ =
        index_ ? index_->Snapshot() : detector_.FindViolations(db_);
  });
  return *violations_;
}

size_t MeasureContext::num_minimal_subsets() {
  return index_ ? index_->NumMinimalSubsets()
                : violations().num_minimal_subsets();
}

size_t MeasureContext::num_minimal_violations() {
  return index_ ? index_->NumMinimalViolations()
                : violations().num_minimal_violations();
}

bool MeasureContext::empty() {
  return index_ ? index_->IsConsistent() : violations().empty();
}

bool MeasureContext::truncated() {
  return index_ ? false : violations().truncated();
}

size_t MeasureContext::num_problematic_facts() {
  return index_ ? index_->NumProblematicFacts()
                : conflict_graph().num_vertices();
}

const ConflictGraph& MeasureContext::conflict_graph() {
  std::call_once(conflict_graph_once_, [&] {
    conflict_graph_ = index_ ? index_->BuildConflictGraph()
                             : ConflictGraph::Build(db_, violations());
  });
  return *conflict_graph_;
}

const RepairInstance& MeasureContext::repair() {
  std::call_once(repair_once_, [&] {
    repair_ = BuildRepairInstance(conflict_graph());
  });
  return *repair_;
}

void MeasureContext::Materialize() { conflict_graph(); }

}  // namespace dbim
