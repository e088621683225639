#include "measures/session.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace dbim {

namespace {

// Apply runs PoolWaste() — a scan of the pool and every registered
// database's distinct-value counts — only every this many operations, so
// the auto-vacuum hook stays cheap inside tight mutation loops.
constexpr size_t kAutoVacuumCheckInterval = 64;

}  // namespace

const MeasureResult* BatchReport::Find(const std::string& name) const {
  for (const MeasureResult& r : measures) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

MeasureSession::MeasureSession(std::shared_ptr<const Schema> schema,
                               std::vector<DenialConstraint> constraints,
                               MeasureSessionOptions options)
    : schema_(std::move(schema)),
      detector_(schema_, std::move(constraints), options.detector),
      measures_(CreateMeasures(options.registry)),
      options_(std::move(options)),
      pool_(std::make_shared<ValuePool>()) {
  // Incremental maintenance covers any constraint arity (binary Sigma
  // probes blocking buckets, k-ary Sigma re-enumerates witnesses through
  // the changed fact); only capped/deadlined detection falls back to full
  // detection per evaluation (a maintained MI set cannot reproduce a
  // truncation point).
  incremental_supported_ =
      options_.detector.max_subsets == 0 &&
      options_.detector.deadline_seconds == 0.0;
}

MeasureSession::HandleState& MeasureSession::State(DbHandle handle) {
  DBIM_CHECK_MSG(handle < handles_.size() && handles_[handle] != nullptr,
                 "invalid or unregistered handle %u", handle);
  return *handles_[handle];
}

const MeasureSession::HandleState& MeasureSession::State(
    DbHandle handle) const {
  DBIM_CHECK_MSG(handle < handles_.size() && handles_[handle] != nullptr,
                 "invalid or unregistered handle %u", handle);
  return *handles_[handle];
}

DbHandle MeasureSession::Register(const Database& db) {
  auto state = std::make_unique<HandleState>(db);  // copy, then re-key
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  state->db.ReinternInto(pool_);
  if (incremental_supported_) {
    state->incremental = std::make_unique<IncrementalViolationIndex>(
        schema_, detector_.constraints(), &state->db, options_.detector);
  }
  const DbHandle handle = static_cast<DbHandle>(handles_.size());
  handles_.push_back(std::move(state));
  ++num_registered_;
  return handle;
}

void MeasureSession::Unregister(DbHandle handle) {
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  State(handle);  // validity check
  handles_[handle] = nullptr;
  --num_registered_;
}

const Database& MeasureSession::db(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  return State(handle).db;
}

size_t MeasureSession::num_registered() const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  return num_registered_;
}

size_t MeasureSession::num_stored_subset_slots(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.incremental ? state.incremental->NumStoredSlots() : 0;
}

std::vector<ConstraintStats> MeasureSession::ConstraintStats(
    DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  std::vector<dbim::ConstraintStats> out(detector_.constraints().size());
  for (size_t c = 0; c < out.size(); ++c) {
    out[c] = state.incremental ? state.incremental->ConstraintStatsFor(c)
                               : detector_.constraint_stats(c);
  }
  return out;
}

IncrementalDispatchStats MeasureSession::DispatchStats(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.incremental ? state.incremental->dispatch_stats()
                           : IncrementalDispatchStats{};
}

std::optional<FactId> MeasureSession::Apply(DbHandle handle,
                                            const RepairOperation& op) {
  std::optional<FactId> inserted;
  {
    std::shared_lock<std::shared_mutex> session(session_mu_);
    HandleState& state = State(handle);
    std::lock_guard<std::mutex> handle_lock(state.mu);
    // WAL-before-mutate: the durability hook makes the operation durable
    // under both locks, so a record on disk always precedes its effect and
    // per-handle log order equals mutation order. Checkpoints (exclusive
    // lock) can never interleave between this append and the mutation.
    if (options_.durability != nullptr) {
      options_.durability->OnApply(handle, op);
    }
    if (state.incremental) {
      inserted = state.incremental->Apply(op);
    } else if (op.is_insertion()) {
      inserted = state.db.Insert(op.insertion().fact);
    } else {
      op.ApplyInPlace(state.db);
    }
  }
  // The auto-vacuum hook runs with no lock held (Vacuum takes the session
  // lock exclusively itself), so an Apply that triggers it can never
  // deadlock against another in-flight Apply. The monotonic counter's
  // modulo makes exactly one thread per check window pay the exclusive
  // waste scan, however many Applies race across the boundary.
  const size_t op_index =
      ops_since_vacuum_check_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.auto_vacuum_threshold > 0.0 &&
      op_index % kAutoVacuumCheckInterval == 0) {
    Vacuum(options_.auto_vacuum_threshold);
  }
  // Auto-checkpoint rides the same lock-free window: when the durability
  // hook reports the WAL has grown past its budget, run a Vacuum with an
  // impossible waste threshold — the pool is left alone (waste is < 1 by
  // construction) but OnCheckpoint fires under the exclusive lock.
  if (options_.durability != nullptr && options_.durability->WantsCheckpoint()) {
    Vacuum(1.0);
  }
  return inserted;
}

size_t MeasureSession::NumFacts(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.db.size();
}

size_t MeasureSession::NumMinimalSubsets(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  if (state.incremental != nullptr) {
    return state.incremental->NumMinimalSubsets();
  }
  num_full_detections_.fetch_add(1, std::memory_order_relaxed);
  return detector_.FindViolations(state.db).num_minimal_subsets();
}

std::vector<std::pair<FactId, std::vector<Value>>> MeasureSession::CopyFacts(
    DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  std::vector<FactId> ids = state.db.ids();
  std::sort(ids.begin(), ids.end());
  std::vector<std::pair<FactId, std::vector<Value>>> rows;
  rows.reserve(ids.size());
  for (const FactId id : ids) {
    rows.emplace_back(id, state.db.fact(id).values());
  }
  return rows;
}

bool MeasureSession::Selected(const std::string& name) const {
  if (options_.only.empty()) return true;
  return std::find(options_.only.begin(), options_.only.end(),
                   name) != options_.only.end();
}

std::vector<MeasureResult> MeasureSession::Evaluate(
    MeasureContext& context) const {
  std::vector<MeasureResult> results;
  for (const auto& measure : measures_) {
    if (!Selected(measure->name())) continue;
    MeasureResult& r = results.emplace_back();
    r.name = measure->name();
    Timer timer;
    r.value = measure->Evaluate(context);
    r.seconds = timer.Seconds();
  }
  return results;
}

BatchReport MeasureSession::ReportOn(MeasureContext& context,
                                     double detection_seconds) const {
  BatchReport report;
  report.detection_seconds = detection_seconds;
  report.num_minimal_subsets = context.num_minimal_subsets();
  report.truncated = context.truncated();
  report.measures = Evaluate(context);
  return report;
}

BatchReport MeasureSession::EvaluateState(const HandleState& state) const {
  std::lock_guard<std::mutex> handle_lock(state.mu);
  if (state.incremental) {
    // The context reads the index in place; it must not outlive the handle
    // lock, which keeps Apply off the index while the measures run.
    MeasureContext context(detector_, *state.incremental);
    return ReportOn(context, 0.0);
  }
  num_full_detections_.fetch_add(1, std::memory_order_relaxed);
  Timer detection;
  MeasureContext context(detector_, state.db);
  context.violations();
  return ReportOn(context, detection.Seconds());
}

BatchReport MeasureSession::Evaluate(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  return EvaluateState(State(handle));
}

std::vector<BatchReport> MeasureSession::EvaluateAll(
    const std::vector<DbHandle>& handles) const {
  // One shared session lock across the loop, so the handle table and pool
  // identity are stable for the whole batch.
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  std::vector<BatchReport> reports;
  reports.reserve(handles.size());
  for (const DbHandle handle : handles) {
    reports.push_back(EvaluateState(State(handle)));
  }
  return reports;
}

BatchReport MeasureSession::EvaluateOne(const Database& db) const {
  Timer detection;
  MeasureContext context(detector_, db);
  context.violations();
  return ReportOn(context, detection.Seconds());
}

ViolationSet MeasureSession::Violations(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  if (state.incremental) return state.incremental->Snapshot();
  num_full_detections_.fetch_add(1, std::memory_order_relaxed);
  return detector_.FindViolations(state.db);
}

double MeasureSession::PoolWasteLocked() const {
  if (pool_->size() <= 1) return 0.0;
  std::vector<char> used(pool_->size(), 0);
  used[kNullValueId] = 1;
  for (const auto& state : handles_) {
    if (state != nullptr) state->db.MarkUsedValueIds(used);
  }
  size_t used_count = 0;
  for (const char u : used) used_count += u;
  return 1.0 - static_cast<double>(used_count) /
                   static_cast<double>(pool_->size());
}

double MeasureSession::PoolWaste() const {
  // Exclusive: the scan reads every registered database's columns, which
  // concurrent Applies mutate.
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  return PoolWasteLocked();
}

bool MeasureSession::VacuumLocked(double waste_threshold) {
  bool compacted = false;
  if (PoolWasteLocked() > waste_threshold) {
    // Re-intern every registered database into one fresh pool, in handle
    // order: values shared across databases are interned once, dead
    // entries are dropped. FactId-keyed violation state and the
    // semantic-hash blocking buckets survive untouched.
    auto fresh = std::make_shared<ValuePool>();
    for (auto& state : handles_) {
      if (state != nullptr) state->db.ReinternInto(fresh);
    }
    pool_ = std::move(fresh);
    num_vacuums_.fetch_add(1, std::memory_order_relaxed);
    compacted = true;
  }
  // Slot compaction rides along: dead subset slots accumulate in the
  // incremental indices under churn exactly like dead pool entries, and
  // the same threshold bounds both.
  for (auto& state : handles_) {
    if (state != nullptr && state->incremental) {
      state->incremental->CompactSlotsIfWasteful(waste_threshold);
    }
  }
  // Retired dictionary slabs ride along too: growth retires (never frees)
  // slabs so lock-free readers stay valid, and the exclusive session lock
  // held here is exactly the no-readers window where freeing them is
  // legal. This also covers a freshly rebuilt pool, which accumulated
  // retired slabs while growing during the re-intern above.
  pool_->ReclaimRetiredSlabs();
  // Checkpoint: under the exclusive lock no Apply is in flight and no WAL
  // append can race the segment rewrite — the durable store snapshots
  // every live database (post-compaction ids and pool) and truncates the
  // log here.
  if (options_.durability != nullptr) {
    std::vector<std::pair<DbHandle, const Database*>> databases;
    databases.reserve(num_registered_);
    for (size_t h = 0; h < handles_.size(); ++h) {
      if (handles_[h] != nullptr) {
        databases.emplace_back(static_cast<DbHandle>(h), &handles_[h]->db);
      }
    }
    options_.durability->OnCheckpoint(databases);
  }
  return compacted;
}

TablePrinter ConstraintStatsTable(const ViolationDetector& detector,
                                  const std::vector<ConstraintStats>& stats) {
  const std::vector<DenialConstraint>& constraints = detector.constraints();
  DBIM_CHECK(stats.size() == constraints.size());
  TablePrinter table({"constraint", "probes", "fires", "watchers"});
  for (size_t c = 0; c < stats.size(); ++c) {
    table.AddRow({constraints[c].ToString(detector.schema()),
                  std::to_string(stats[c].num_probes),
                  std::to_string(stats[c].num_fires),
                  std::to_string(stats[c].watcher_count)});
  }
  return table;
}

bool MeasureSession::Vacuum(double waste_threshold) {
  // Exclusive session lock: equivalent to holding every handle lock, so
  // in-flight Applies and Evaluates drain before the pool and the indices
  // are rebuilt, and new ones wait.
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  return VacuumLocked(waste_threshold);
}

}  // namespace dbim
