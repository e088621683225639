#include "measures/basic_measures.h"

namespace dbim {

double DrasticMeasure::Evaluate(MeasureContext& context) const {
  return context.empty() ? 0.0 : 1.0;
}

double MiCountMeasure::Evaluate(MeasureContext& context) const {
  return static_cast<double>(context.num_minimal_subsets());
}

double ProblematicFactsMeasure::Evaluate(MeasureContext& context) const {
  return static_cast<double>(context.num_problematic_facts());
}

double MinimalViolationsMeasure::Evaluate(MeasureContext& context) const {
  return static_cast<double>(context.num_minimal_violations());
}

}  // namespace dbim
