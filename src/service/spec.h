#ifndef DBIM_SERVICE_SPEC_H_
#define DBIM_SERVICE_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "constraints/dc.h"
#include "measures/session.h"
#include "relational/schema.h"

namespace dbim {

/// A parsed constraint-spec file: one relation declaration plus its denial
/// constraints. This is the configuration unit shared by dbim_cli (one-shot
/// measurement of a CSV) and dbimd (the schema every served session runs
/// under).
///
/// Format — comments and blank lines are ignored:
///
///   # airports
///   relation Airport(Id, Type, Name, Continent, Country, Municipality)
///   !(t.Country = t'.Country & t.Continent != t'.Continent)
///   !(t.Municipality = t'.Municipality & t.Country != t'.Country)
struct ServiceSpec {
  std::shared_ptr<const Schema> schema;
  RelationId relation = 0;
  std::vector<DenialConstraint> constraints;
};

/// Parses spec text. Returns false and sets *error (with a line number) on
/// the first malformed declaration or constraint.
bool ParseSpecText(const std::string& text, ServiceSpec* spec,
                   std::string* error);

/// Loads and parses the spec file at `path`.
bool LoadSpecFile(const std::string& path, ServiceSpec* spec,
                  std::string* error);

/// The paper's running example (datagen/running_example.h) as a spec — the
/// built-in workload dbimd serves when started with --example, so smoke
/// tests and the load generator need no spec file on disk.
ServiceSpec ExampleSpec();

/// Parses the session-engine flags shared by dbim_cli and dbimd into one
/// SessionOptions — the single place the flag spelling maps onto the
/// options struct, so no tool assembles it field-by-field:
///
///   --threads=N           detection worker threads (0 = hardware)
///   --measures=I_d,I_MI   restrict to the named measures
///   --mc                  include the model-counting measure I_MC
///   --parallel-measures   evaluate selected measures concurrently
///   --window=count:N      sliding window keeping the newest N facts
///   --window=ticks:N      sliding window keeping facts from the last N
///                         logical ticks (see streaming/stream_session.h)
///   --approx=EPS          sampling-based estimators with absolute-rate
///                         error EPS in (0, 1] (see streaming/approx.h)
///
/// Returns false and sets *error, naming the flag, on a value that does
/// not parse (a non-numeric or negative N, a window kind other than count
/// or ticks or a zero window size, an EPS outside (0, 1]) — never a silent
/// fallback to a different setting. *options is unspecified after a
/// failure.
bool SessionOptionsFromFlags(int argc, char** argv, SessionOptions* options,
                             std::string* error);

}  // namespace dbim

#endif  // DBIM_SERVICE_SPEC_H_
