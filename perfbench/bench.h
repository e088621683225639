// Shared pieces of the end-to-end benchmark (dbim_perfbench): run
// configuration, latency summaries, result/metric bookkeeping, the span
// tracer, workload inputs and the per-layer probe suite.
//
// Everything here calls the library's public API from the outside; no
// library code is instrumented. See perfbench/README.md for the workloads,
// metrics and output format.
#ifndef DBIM_PERFBENCH_BENCH_H_
#define DBIM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraints/dc.h"
#include "datagen/datasets.h"
#include "measures/session.h"
#include "relational/database.h"
#include "relational/operations.h"

namespace perfbench {

using dbim::BatchReport;
using dbim::Database;
using dbim::DenialConstraint;
using dbim::RepairOperation;
using dbim::Schema;

// ------------------------------------------------------------- config --

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // span dumps, result records, durable-store dirs
  size_t threads = 4;   // client threads / connections / detector threads
};

/// Client threads, connections and detector threads: the machine's
/// hardware threads, capped at 4 so every workload keeps its shape (4
/// handles, 4 connections) on larger machines.
size_t BenchThreads();

/// Measure selection shared by every workload: the paper's Table-3
/// registry without I_MC and I'_MC (they hit their 60 s deadline and
/// return NaN even on 300-tuple inputs), i.e. I_d, I_MI, I_P, I_R, I_lin_R.
dbim::SessionOptions MeasureOptions();

// -------------------------------------------------------------- clock --

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// setup_s is the median of kSetupsBefore set-ups timed before the run (the
/// run uses the last) and kSetupsAfter more timed after it, built and
/// thrown away: spread over the whole run, a stall of other tenants on a
/// shared machine moves few of them.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 3;

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process in MiB.
double PeakRssMb();

// ----------------------------------------------------------- latencies --

/// One timed op: when it completed and its latency.
struct Sample {
  uint64_t done_ns = 0;
  double value = 0.0;
};
using Samples = std::vector<Sample>;

/// A timing summary. p50 and p90 are taken in each of 10 stretches of the
/// run with equal op counts (in completion order), and the median of the
/// 10 is reported, so a stall of other tenants on a shared machine moves
/// them only while it covers most of the run. The tail is the highest
/// percentile of the ladder {50, 75, 90, 95, 99, 99.9} over all samples
/// that has at least 10 samples beyond it; it catches such stalls and is
/// printed, not gated.
struct Latency {
  double p50 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  size_t n = 0;
};
Latency Summarize(Samples samples);
double Median(std::vector<double> samples);

/// Throughput that one stalled stretch of the run cannot drag down: the
/// completion times are cut into 10 runs of equal op count, and the median
/// of their ops per second is returned.
double WindowedThroughput(std::vector<uint64_t> done_ns, uint64_t start_ns);

// -------------------------------------------------------------- result --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // 0 = not a sampled timing
  std::string note;    // e.g. which percentile a tail is
};

/// Attempted / failed / refused counts of one op type.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;  // ERR BUSY admissions
};

struct Result {
  std::vector<std::string> failures;  // failed output checks
  std::map<std::string, OpCounts> ops;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // extra human-readable lines

  bool correct() const { return failures.empty(); }
  void Fail(const std::string& why);
  void AddE2E(std::string name, double value, std::string unit,
              size_t samples = 0, std::string note = "");
  void AddLayer(std::string name, double value, std::string unit,
                size_t samples = 0);
  /// Adds <stem>_p50_<unit>, <stem>_p90_<unit> and <stem>_tail_<unit>.
  void AddLatency(const std::string& stem, const Latency& latency,
                  const std::string& unit);
  uint64_t Attempted() const;
  uint64_t FailedOrRefused() const;
};

// --------------------------------------------------------------- spans --

/// One traced call into a layer: name ("layer.Function"), start/end on the
/// steady clock, the enclosing span on the same thread (0 = root) and the
/// benchmark op it belongs to.
struct SpanRecord {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
};

/// Turns span recording on or off for the whole process. Off (the
/// default) makes ScopedSpan a no-op.
void SetTracing(bool on);

/// RAII span. Spans are kept in per-thread in-memory buffers and only
/// collected (CollectSpans) after the traced phase.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  size_t index_ = 0;
};

/// Records a finished span whose start and end were taken by the caller
/// (pipelined wire requests overlap, so they cannot nest as ScopedSpans).
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t op);

/// A stable C string equal to `name` (span names must outlive the tracer).
const char* InternName(const std::string& name);

/// Moves every thread's recorded spans out of the tracer.
std::vector<SpanRecord> CollectSpans();

/// Per-layer self time (span minus time covered by its child spans) and
/// span counts, keyed by layer (the span name up to its first '.').
struct SpanSummary {
  std::map<std::string, double> self_ms;
  std::map<std::string, size_t> count;
  double layer_ms = 0.0;  // per-thread union of every non-"op" span
};
SpanSummary SummarizeSpans(const std::vector<SpanRecord>& spans);

/// Writes spans as JSON lines to `path`. Returns false on I/O error.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

// ------------------------------------------------------ workload inputs --

/// One generated, CONoise-dirtied instance plus its cleaning cycle: the
/// updates that restore every dirtied cell (`restore`, shuffled) and the
/// updates that dirty them again (`redirty`, shuffled). Replaying restore
/// then redirty returns the database to exactly `dirty`.
struct Instance {
  std::string name;
  std::shared_ptr<const Schema> schema;
  dbim::RelationId relation = 0;
  std::vector<DenialConstraint> constraints;
  Database dirty;
  std::vector<RepairOperation> restore;
  std::vector<RepairOperation> redirty;

  Instance() : dirty(std::make_shared<Schema>()) {}
};

/// MakeDataset(id, tuples, data_seed), then CONoise drawn from
/// `noise_seed`: `noise_steps` steps, or — when `target_subsets` > 0 —
/// steps until |MI| reaches that target (at most `noise_steps`).
///
/// The workloads fix `data_seed` per instance and derive `noise_seed` from
/// --seed: the clean data stands in for the paper's fixed real datasets,
/// and the seed picks the noise, as in the paper's experiments. Noising to
/// a violation target rather than a step count keeps the inconsistency,
/// and with it the cost of every report, nearly the same for every seed.
Instance MakeInstance(dbim::DatasetId id, size_t tuples, uint64_t data_seed,
                      uint64_t noise_seed, size_t noise_steps,
                      size_t target_subsets);

/// Exact equality of two reports: subset count, truncation and every
/// measure's name and value (double ==). On mismatch *why says what.
bool SameReport(const BatchReport& got, const BatchReport& want,
                std::string* why);

/// Whether every measure is exactly 0 and MI is empty.
bool ZeroReport(const BatchReport& report);

/// One report per instance from a fresh 1-thread MeasureEngine (a full
/// detection pass): the references the output checks compare against.
std::vector<BatchReport> FreshReports(const std::vector<Instance>& instances);

/// The rest of a report once MI is known, as the library computes it — the
/// conflict graph on a context over `db`, then each measure — with a span
/// around each call.
BatchReport TracedMeasures(
    const dbim::ViolationDetector& detector,
    const std::vector<std::unique_ptr<dbim::InconsistencyMeasure>>& measures,
    const Database& db, dbim::ViolationSet violations, uint64_t op);

/// A database equal to `rows` (ids preserved) — rebuilt from CopyFacts or
/// DUMP output.
Database RebuildDatabase(
    std::shared_ptr<const Schema> schema, dbim::RelationId relation,
    const std::vector<std::pair<dbim::FactId, std::vector<dbim::Value>>>&
        rows);

/// Creates an empty directory under cfg.out_dir for a durable store.
std::string MakeStoreDir(const Config& cfg, const std::string& tag);
void RemoveDir(const std::string& dir);

// ------------------------------------------------------ per-layer probes --

/// Instances sharing one schema and constraint set (one session / server
/// per group).
struct Group {
  std::vector<const Instance*> instances;
};

/// Runs the per-layer probe suite on the workload's own instances and
/// cleaning traces and adds every per-layer metric to `result`: detection
/// at `threads` and 1 thread, conflict graph and each measure on a
/// materialised context, session register/snapshot/evaluate/apply (1 and
/// `threads` threads), auto-vacuum, incremental counters, value pool,
/// durable store (WAL, recovery), the wire service and protocol codec.
void RunLayerProbes(const Config& cfg, const std::vector<Group>& groups,
                    Result* result);

// ----------------------------------------------------------- workloads --

Result RunBatch(const Config& cfg);
Result RunTrajectory(const Config& cfg);
Result RunService(const Config& cfg);

/// Adds trace.overhead_pct / trace.span_coverage and prints the per-layer
/// self times of a traced timed phase; dumps the spans to cfg.out_dir.
void ReportTrace(const Config& cfg, double untraced_ops_per_s,
                 double traced_ops_per_s, double traced_thread_seconds,
                 Result* result);

}  // namespace perfbench

#endif  // DBIM_PERFBENCH_BENCH_H_
