#include "measures/measure.h"

namespace dbim {

const ViolationSet& MeasureContext::violations() {
  std::call_once(violations_once_, [&] {
    if (!violations_) violations_ = detector_.FindViolations(db_);
  });
  return *violations_;
}

const ConflictGraph& MeasureContext::conflict_graph() {
  std::call_once(conflict_graph_once_, [&] {
    conflict_graph_ = ConflictGraph::Build(db_, violations());
  });
  return *conflict_graph_;
}

const RepairInstance& MeasureContext::repair() {
  std::call_once(repair_once_, [&] {
    repair_ = BuildRepairInstance(conflict_graph());
  });
  return *repair_;
}

void MeasureContext::Materialize() {
  conflict_graph();  // transitively materializes violations()
}

}  // namespace dbim
