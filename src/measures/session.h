#ifndef DBIM_MEASURES_SESSION_H_
#define DBIM_MEASURES_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "measures/measure.h"
#include "measures/registry.h"
#include "relational/database.h"
#include "violations/detector.h"
#include "violations/incremental.h"

namespace dbim {

/// Handle to a database registered with a MeasureSession.
using DbHandle = uint32_t;

/// Optional durability callbacks a MeasureSession invokes around its
/// mutation path (see SessionOptions::durability). Implemented by
/// storage::DurableSessionStore; the session itself stays storage-agnostic.
///
/// Contract:
///  * OnApply runs inside Apply, under the session (shared) and handle
///    locks, BEFORE the operation mutates the handle's database — so a
///    record made durable here always precedes its effect, and per-handle
///    WAL order equals per-handle mutation order. Called concurrently for
///    distinct handles; must not call back into the session.
///  * OnCheckpoint runs at the end of Vacuum under the exclusive session
///    lock (no Apply in flight, no WAL append racing the segment rewrite):
///    the quiescent point where segments are rewritten and the log
///    truncated. `databases` holds every live handle.
///  * WantsCheckpoint is polled by Apply after both locks are released;
///    returning true triggers a Vacuum (and therefore OnCheckpoint).
class SessionDurabilityHook {
 public:
  virtual ~SessionDurabilityHook() = default;
  virtual void OnApply(DbHandle handle, const RepairOperation& op) = 0;
  virtual void OnCheckpoint(
      const std::vector<std::pair<DbHandle, const Database*>>& databases) = 0;
  virtual bool WantsCheckpoint() const { return false; }
};

/// Sliding-window configuration for streaming measurement (consumed by
/// streaming::StreamSession and the service's windowed tenants; the
/// session core itself ignores it). size == 0 disables windowing.
struct WindowSpec {
  enum class Kind {
    kCount,  // keep the most recent `size` facts
    kTicks,  // keep facts whose tick is within `size` of the current tick
  };
  Kind kind = Kind::kCount;
  uint64_t size = 0;

  bool enabled() const { return size > 0; }
};

/// Sampling-estimator configuration (consumed by streaming::ApproxEvaluator
/// and the service's EVALUATE APPROX path). eps == 0 disables approximation;
/// see ApproxOptions for the semantics of each field.
struct ApproxSpec {
  double eps = 0.0;
  double confidence = 0.95;
  uint64_t seed = 42;

  bool enabled() const { return eps > 0.0; }
};

/// Every knob of a measure session (and of its one-shot wrapper
/// MeasureEngine) in one flat, documented struct: measure selection,
/// detection, evaluation strategy, maintenance and durability. Plain
/// aggregate — set fields directly, or chain the builder-style setters for
/// the common ones:
///
///   MeasureSession session(schema, sigma,
///                          SessionOptions().WithThreads(8)
///                                          .WithAutoVacuum(0.5));
struct SessionOptions {
  /// Measure selection and per-measure budgets (I_MC / I_R deadlines).
  RegistryOptions registry;

  /// Knobs for the shared detection pass (blocking, caps, deadline, and
  /// `num_threads` for the sharded phases — reports are identical for
  /// every thread count; see DetectorOptions).
  DetectorOptions detector;

  /// Restrict evaluation to these measure names (empty = the full
  /// registry). Unknown names are ignored.
  std::vector<std::string> only;

  /// Auto-vacuum hook: when > 0, Apply periodically checks the shared
  /// pool's waste (the fraction of dictionary entries no registered
  /// database references — sustained value churn grows it) and, past the
  /// threshold, rebuilds the pool and remaps every registered database
  /// together, also compacting each incremental index's dead subset slots.
  /// Measure reports are invariant under both compactions. 0 disables.
  double auto_vacuum_threshold = 0.0;

  /// Durability callbacks (borrowed, not owned; must outlive the session).
  /// nullptr — the default — keeps the session fully in-memory: no WAL
  /// append on Apply, no checkpoint on Vacuum, zero overhead.
  SessionDurabilityHook* durability = nullptr;

  /// Sliding-window mode for the streaming layer: when enabled, the
  /// service wraps each registered handle in a StreamSession and dbim_cli
  /// replays its input through one. Disabled by default.
  WindowSpec window;

  /// Default sampling-estimator knobs for EVALUATE APPROX / --approx.
  /// Disabled by default; an explicit `EVALUATE <s> APPROX <eps>` request
  /// overrides eps per call.
  ApproxSpec approx;

  // Builder-style setters (each returns *this for chaining).

  /// Detection threads for the sharded enumeration phases.
  SessionOptions& WithThreads(size_t n) {
    detector.num_threads = n;
    return *this;
  }
  /// Restricts evaluation to one more named measure.
  SessionOptions& WithMeasure(std::string name) {
    only.push_back(std::move(name));
    return *this;
  }
  SessionOptions& WithIncludeMC(bool on = true) {
    registry.include_mc = on;
    return *this;
  }
  SessionOptions& WithMaxSubsets(size_t n) {
    detector.max_subsets = n;
    return *this;
  }
  SessionOptions& WithDetectionDeadline(double seconds) {
    detector.deadline_seconds = seconds;
    return *this;
  }
  SessionOptions& WithRepairDeadline(double seconds) {
    registry.repair_deadline_seconds = seconds;
    return *this;
  }
  SessionOptions& WithAutoVacuum(double waste_threshold) {
    auto_vacuum_threshold = waste_threshold;
    return *this;
  }
  SessionOptions& WithDurability(SessionDurabilityHook* hook) {
    durability = hook;
    return *this;
  }
  SessionOptions& WithWindow(WindowSpec::Kind kind, uint64_t size) {
    window.kind = kind;
    window.size = size;
    return *this;
  }
  SessionOptions& WithApprox(double eps) {
    approx.eps = eps;
    return *this;
  }
};

/// Historical spellings from when engine-level and session-level knobs
/// were separate structs; both name the one flat SessionOptions now.
using MeasureEngineOptions = SessionOptions;
using MeasureSessionOptions = SessionOptions;

/// Value of one measure plus the time evaluation took on the shared
/// context (detection excluded; see BatchReport::detection_seconds).
struct MeasureResult {
  std::string name;
  double value = 0.0;
  double seconds = 0.0;
};

/// Result of evaluating a registry over one (Sigma, D) pair.
struct BatchReport {
  /// Wall time spent obtaining MI_Sigma(D): the single FindViolations pass;
  /// 0 on a session handle with incremental maintenance, whose maintained
  /// index the measures read in place.
  double detection_seconds = 0.0;
  size_t num_minimal_subsets = 0;
  bool truncated = false;
  std::vector<MeasureResult> measures;

  /// The entry named `name`, or nullptr.
  const MeasureResult* Find(const std::string& name) const;
};

/// A long-lived, multi-database evaluation session: owns (Sigma, the
/// instantiated measure registry, options) plus one shared ValuePool for
/// every database registered with it.
///
/// Real measurement workloads are trajectories, not one-shots: the noise
/// benches evaluate the same (Sigma, schema) over dozens of mutated
/// samples, and repair loops re-measure after every operation. Detection
/// dominates each evaluation (paper Section 6.2.3), so the session
/// amortizes detection *state* across the trajectory:
///
///  * `Register(db)` re-interns the database onto the session pool and —
///    when detection is uncapped — builds an IncrementalViolationIndex on
///    the shared eval kernel: binary constraints keep per-constraint
///    blocking buckets across operations and are dispatched through them
///    (watched dispatch), k-ary constraints re-enumerate witnesses through
///    the changed fact (anchored enumeration, pruned by equality keys);
///  * `Apply(handle, op)` mutates in place and maintains MI_Sigma(D) in
///    O(bucket) (binary) / O(k n^{k-1}) (k-ary) per operation instead of
///    re-detecting (capped/deadlined detection falls back to full
///    detection transparently);
///  * `Evaluate(handle)` reports all selected measures; with incremental
///    maintenance there is no detection step — the measures read the
///    maintained index in place (counts from its counters, the conflict
///    graph from its live subsets). Reports are bit-identical to a fresh
///    MeasureEngine over an equal database;
///  * `EvaluateAll(handles)` evaluates several databases in one call
///    under one shared session lock (e.g. a trajectory's sample points);
///  * the auto-vacuum hook compacts the shared pool (and the incremental
///    indices' dead slots) during long mutation loops, remapping all
///    registered databases together.
///
/// Thread safety — independent trajectories mutate concurrently:
///
///  * every public method may be called from any thread. Register,
///    Unregister, Vacuum and PoolWaste take the session lock exclusively
///    (equivalent to holding every handle lock); Apply, Evaluate,
///    EvaluateAll and Violations take it shared plus the per-handle lock,
///    so `Apply` on *distinct* handles proceeds in parallel — the shared
///    pool accepts concurrent interning (see ValuePool) — while operations
///    on the *same* handle serialize;
///  * the lock order is session-then-handle everywhere, and the
///    auto-vacuum hook runs after Apply has released both, so no cycle
///    exists;
///  * results are unaffected by interleaving: per-handle state depends
///    only on that handle's operation sequence, and nothing observable
///    depends on raw ValueId numbering (equality is by semantic class, the
///    incremental buckets hash value semantics, reports are fact-id sets
///    and measure values). Reports under concurrent mutation are
///    bit-identical to applying the same per-handle sequences one by one.
///
/// `db(handle)` returns a reference into session storage with no lock
/// held. It is only safe to read while no other thread mutates the
/// session: a concurrent Apply to the same handle writes the columns, a
/// concurrent Apply to *any* handle can trigger auto-vacuum (which
/// rewrites every registered database), and Unregister destroys the
/// storage outright. Under concurrent mutation, use Evaluate/Violations
/// (which lock) instead of holding the raw reference.
class MeasureSession {
 public:
  MeasureSession(std::shared_ptr<const Schema> schema,
                 std::vector<DenialConstraint> constraints,
                 MeasureSessionOptions options = {});

  const ViolationDetector& detector() const { return detector_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::vector<std::unique_ptr<InconsistencyMeasure>>& measures() const {
    return measures_;
  }
  const ValuePool& pool() const { return *pool_; }

  /// Registers a copy of `db`, re-interned onto the session pool. Row order
  /// is preserved, so detection results match the original database
  /// exactly.
  DbHandle Register(const Database& db);

  /// Drops a handle (its database and incremental state).
  void Unregister(DbHandle handle);

  /// The session's live view of a registered database.
  const Database& db(DbHandle handle) const;

  size_t num_registered() const;

  /// Applies a repairing operation to the handle's database, maintaining
  /// the incremental violation index when one exists, and runs the
  /// auto-vacuum hook. Safe to call concurrently for distinct handles.
  /// Returns the identifier an insertion was stored under (the minimal
  /// unused id — what a remote client needs to address the fact later);
  /// nullopt for deletions, updates and inapplicable operations.
  std::optional<FactId> Apply(DbHandle handle, const RepairOperation& op);

  /// Evaluates every selected measure over the handle's database. With
  /// incremental maintenance no detection pass runs and no MI set is
  /// copied: the measures get an index-backed MeasureContext, valid for
  /// the duration of the call under the handle lock.
  BatchReport Evaluate(DbHandle handle) const;

  /// Batch evaluation across databases: one report per handle, in order,
  /// on the calling thread. Reports are bit-identical to calling Evaluate
  /// per handle.
  std::vector<BatchReport> EvaluateAll(
      const std::vector<DbHandle>& handles) const;

  /// One-shot evaluation of an unregistered database on its own pool: a
  /// full detection pass plus the measure suite. This is MeasureEngine's
  /// implementation, and the "fresh" baseline the session's amortized path
  /// is benchmarked against.
  BatchReport EvaluateOne(const Database& db) const;

  /// Evaluates the selected measures on a caller-provided context (which
  /// may already hold cached violations — no re-detection happens here).
  std::vector<MeasureResult> Evaluate(MeasureContext& context) const;

  /// The handle's current MI_Sigma(D): a Snapshot() of the maintained
  /// index when incremental, a full detection pass otherwise. Feed it to a
  /// MeasureContext to share with Shapley ranking or repair planning.
  /// Evaluate does not go through it.
  ViolationSet Violations(DbHandle handle) const;

  /// Fraction of shared-pool entries no registered database references.
  double PoolWaste() const;

  /// Rebuilds the shared pool without dead entries and remaps every
  /// registered database together when PoolWaste() exceeds the threshold;
  /// also compacts each incremental index's dead subset slots past the
  /// same threshold. Every call, whatever the threshold, also frees the
  /// dictionary slabs pool growth retired since the last vacuum — the
  /// exclusive lock is the one window with no lock-free pool reader, so
  /// this is the only place they are freed. Returns whether pool
  /// compaction ran. Reports are unaffected: subsets are FactId sets and
  /// the incremental buckets hash value semantics, which the re-intern
  /// preserves.
  bool Vacuum(double waste_threshold);

  /// Number of (auto or manual) vacuums that compacted the pool.
  size_t num_vacuums() const {
    return num_vacuums_.load(std::memory_order_relaxed);
  }

  /// Full FindViolations passes run on behalf of registered handles — the
  /// incremental-maintenance fallback counter. Zero for an uncapped
  /// session, whatever the constraint arity: Evaluate reads the maintained
  /// index instead of re-detecting. (EvaluateOne, serving unregistered
  /// databases, is not counted.)
  size_t num_full_detections() const {
    return num_full_detections_.load(std::memory_order_relaxed);
  }

  /// Stored (live + dead) subset slots of the handle's incremental index;
  /// 0 without one. Dead slots accumulate under churn until a vacuum
  /// compacts them — the bound the churn regression tests assert.
  size_t num_stored_subset_slots(DbHandle handle) const;

  /// Number of live facts in the handle's database, read under the session
  /// and handle locks (unlike `db(handle).size()`, safe while other
  /// clients mutate or vacuum).
  size_t NumFacts(DbHandle handle) const;

  /// |MI_Sigma(D)| of the handle right now: O(1) from the maintained
  /// counter when incremental, a full (counted) detection pass otherwise.
  /// The cheap signal the service's SUBSCRIBE watchers poll after every
  /// Apply and window slide.
  size_t NumMinimalSubsets(DbHandle handle) const;

  /// Runs `fn(const Database&)` on the handle's database under the session
  /// (shared) and handle locks — the safe way for a layered subsystem
  /// (e.g. the streaming ApproxEvaluator) to read a registered database
  /// consistently while other handles mutate or a vacuum waits. `fn` must
  /// not call back into the session.
  template <typename Fn>
  auto WithDatabase(DbHandle handle, Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(session_mu_);
    const HandleState& state = State(handle);
    std::lock_guard<std::mutex> handle_lock(state.mu);
    return fn(static_cast<const Database&>(state.db));
  }

  /// A locked copy of the handle's facts as (id, cells) rows in ascending
  /// id order — what the service DUMP verb ships so a remote client can
  /// reconstruct an equal database (InsertWithId preserves identifiers).
  std::vector<std::pair<FactId, std::vector<Value>>> CopyFacts(
      DbHandle handle) const;

  /// Per-constraint probe/fire/watcher counters for the handle, one entry
  /// per constraint in registration order: from the handle's incremental
  /// index when it has one (Apply-time counters plus watched keys),
  /// otherwise the shared detector's cumulative detection counters.
  std::vector<dbim::ConstraintStats> ConstraintStats(DbHandle handle) const;

  /// Watched-dispatch totals of the handle's incremental index (ops
  /// applied, constraints probed vs skipped); zeros without an index.
  IncrementalDispatchStats DispatchStats(DbHandle handle) const;

 private:
  struct HandleState {
    // Serializes Apply/Evaluate on this handle; taken after the session
    // lock (shared) by both.
    mutable std::mutex mu;
    Database db;
    // Engaged when detection is uncapped; points at `db` (non-owning).
    std::unique_ptr<IncrementalViolationIndex> incremental;

    explicit HandleState(Database database) : db(std::move(database)) {}
  };

  HandleState& State(DbHandle handle);
  const HandleState& State(DbHandle handle) const;
  bool Selected(const std::string& name) const;
  BatchReport ReportOn(MeasureContext& context, double detection_seconds) const;
  // Locks the handle's mutex for the duration of the evaluation.
  BatchReport EvaluateState(const HandleState& state) const;
  double PoolWasteLocked() const;
  bool VacuumLocked(double waste_threshold);

  std::shared_ptr<const Schema> schema_;
  ViolationDetector detector_;
  std::vector<std::unique_ptr<InconsistencyMeasure>> measures_;
  MeasureSessionOptions options_;
  std::shared_ptr<ValuePool> pool_;
  bool incremental_supported_ = false;

  // Guards the handle table and the shared pool's identity: shared for
  // per-handle work (Apply/Evaluate/Violations), exclusive for structural
  // changes (Register/Unregister/Vacuum/PoolWaste).
  mutable std::shared_mutex session_mu_;
  // unique_ptr entries: the incremental index holds a pointer into its
  // HandleState's database, so states must not move when the table grows.
  std::vector<std::unique_ptr<HandleState>> handles_;
  size_t num_registered_ = 0;
  std::atomic<size_t> num_vacuums_{0};
  std::atomic<size_t> ops_since_vacuum_check_{0};
  mutable std::atomic<size_t> num_full_detections_{0};
};

/// Renders per-constraint stats (one entry per constraint of `detector`,
/// in order) as a table — header {constraint, probes, fires, watchers},
/// each constraint rendered against the detector's schema — so every
/// surface that reports them (dbim_cli --stats, the service STATS verb,
/// the load generator) shares one text and one machine-readable
/// (TablePrinter::ToJson) form.
TablePrinter ConstraintStatsTable(const ViolationDetector& detector,
                                  const std::vector<ConstraintStats>& stats);

}  // namespace dbim

#endif  // DBIM_MEASURES_SESSION_H_
