// Wire-side helpers shared by the `service` workload and the service
// probe: loading an instance into a server session, the write-heavy op
// cycle, and a pipelined closed loop over one connection.
#ifndef DBIM_PERFBENCH_WIRE_H_
#define DBIM_PERFBENCH_WIRE_H_

#include <string>
#include <vector>

#include "bench.h"
#include "service/client.h"

namespace perfbench {

/// One request of a wire trace: an APPLY (`op`) or an EVALUATE.
struct WireOp {
  bool evaluate = false;
  RepairOperation op = RepairOperation::Deletion(0);
  dbim::FactId predicted_id = 0;  // the id an INSERT must be assigned
  bool cycle_end = false;         // EVALUATE where the database == dirty
};

/// The request that sends `op` to `session`.
dbim::Request RequestFor(const std::string& session, const WireOp& op);

/// The instance's cleaning cycle as wire ops: the restore updates with
/// `donors` inserted among them, then the dirtying updates with the donors
/// deleted again, with one EVALUATE per about `evaluate_every` APPLYs at
/// evenly spaced points, the last at the cycle end. The database ids must
/// be 0..n-1, so the donors get
/// ids n, n+1, ... and a completed cycle returns exactly to `dirty`.
std::vector<WireOp> MakeWireCycle(const Instance& inst,
                                  const std::vector<dbim::Fact>& donors,
                                  size_t evaluate_every);

/// REGISTER `session`, then INSERT every fact of `db` in ascending id
/// order, pipelined; fails unless the server assigns the same ids.
bool LoadOverWire(dbim::ServiceClient& client, const std::string& session,
                  const Database& db, std::string* error);

struct WireLog {
  Samples apply_us;
  Samples report_ms;
  OpCounts apply;
  OpCounts report;
  OpCounts vacuum;
  std::vector<uint32_t> applied;  // cycle positions of acknowledged APPLYs
  std::vector<std::string> failures;
};

/// Where a connection's replay continues: the next request of the cycle
/// and how many rounds have started.
struct WireCursor {
  size_t position = 0;
  size_t rounds = 0;
};

/// Closed loop over one connection with up to `depth` requests in flight:
/// replays `cycle` from `*cursor` round after round until `deadline`
/// (steady-clock ns; 0 = exactly one round), then drains. When
/// `vacuum_rounds` > 0 it also sends the operator's `VACUUM 0.5` at the
/// start of every `vacuum_rounds`-th round. EVALUATE replies at cycle
/// ends must equal `dirty_reference`. Spans are recorded when tracing is
/// on.
void DriveWire(dbim::ServiceClient& client, const std::string& session,
               const std::vector<WireOp>& cycle, size_t depth,
               size_t vacuum_rounds, uint64_t deadline,
               const BatchReport& dirty_reference, uint64_t op_base,
               WireCursor* cursor, WireLog* log);

/// Exact equality of a wire report and an in-process report.
bool SameWireReport(const dbim::WireReport& got, const BatchReport& want,
                    std::string* why);

}  // namespace perfbench

#endif  // DBIM_PERFBENCH_WIRE_H_
