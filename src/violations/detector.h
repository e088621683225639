#ifndef DBIM_VIOLATIONS_DETECTOR_H_
#define DBIM_VIOLATIONS_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "constraints/dc.h"
#include "relational/database.h"
#include "violations/violation.h"

namespace dbim {

/// Knobs for violation detection.
struct DetectorOptions {
  /// Stop after this many minimal inconsistent subsets (0 = unlimited). A
  /// truncated result is flagged on the ViolationSet.
  size_t max_subsets = 0;

  /// Wall-clock budget in seconds (0 = none). Checked at every merge point
  /// (each emitted subset) and cooperatively inside enumeration shards —
  /// every 1024 probe/scan rows, at poll points aligned to global row
  /// indices — so even a violation-free run stops within a bounded slice
  /// of the budget.
  double deadline_seconds = 0.0;

  /// Hash-partition facts on the values of cross-variable equality
  /// predicates, and narrow each probe row's candidates through the order
  /// rank / `!=` class index, before verifying bodies pairwise. Disabling
  /// this forces the plain nested-loop join over every pair (used by the
  /// blocking ablation bench).
  bool use_blocking = true;

  /// Worker threads for every enumeration phase of detection: the pass-1
  /// self-inconsistency scan, the binary-constraint probe (sharded over
  /// probe rows), and the k-ary enumeration (sharded over
  /// outermost-variable rows). Blocking buckets are built sequentially.
  /// 1 = fully sequential on the calling thread (no pool involvement);
  /// 0 = one per hardware thread. Results are bit-identical for every
  /// value: shards write into per-shard buffers that are merged — dedup,
  /// caps and deadline included — in the sequential path's
  /// canonical order. Caveat: a finite deadline_seconds that expires
  /// *mid-run* truncates at a wall-clock-dependent point of that canonical
  /// order, so only runs whose deadline never fires (or is already expired
  /// at entry) are reproducible across thread counts — the same
  /// nondeterminism a re-run of the sequential path has. (Pre-expired
  /// deadlines stay deterministic: cooperative polls land on global-index-
  /// aligned rows, the same prefix for every sharding.)
  size_t num_threads = 1;
};

/// Per-constraint counters, one record shared by every layer that reports
/// them. `num_probes` counts the candidates examined on behalf of the
/// constraint and `num_fires` the violation subsets it contributed:
/// cumulative over every detection pass for ViolationDetector, over
/// Apply-time maintenance for IncrementalViolationIndex (see each
/// accessor). `watcher_count` is the constraint's live watched-key count
/// in an incremental index, 0 from the batch detector.
struct ConstraintStats {
  uint64_t num_probes = 0;
  uint64_t num_fires = 0;
  size_t watcher_count = 0;
};

// Older spelling of ConstraintStats, still named by the end-to-end
// benchmark; goes at the next change to the benchmark.
using DetectorConstraintStats = ConstraintStats;

/// Computes MI_Sigma(D) for a set of denial constraints — the exact result
/// set of the paper's `SELECT DISTINCT R1.ID, R2.ID FROM R R1, R R2 WHERE
/// <body>` self-join, generalized to unary and k-ary DCs, with minimality
/// enforced across constraints (a pair containing a self-inconsistent fact
/// is not a *minimal* subset).
class ViolationDetector {
 public:
  ViolationDetector(std::shared_ptr<const Schema> schema,
                    std::vector<DenialConstraint> constraints,
                    DetectorOptions options = {});

  const std::vector<DenialConstraint>& constraints() const {
    return constraints_;
  }
  const Schema& schema() const { return *schema_; }

  /// All minimal inconsistent subsets of `db`.
  ViolationSet FindViolations(const Database& db) const;

  /// Whether `db` satisfies every constraint (early exit on first witness).
  bool Satisfies(const Database& db) const;

  /// Cumulative probe/fire counters for constraint `c` across every
  /// detection this detector has run (watcher_count stays 0). Thread-safe.
  ConstraintStats constraint_stats(size_t c) const;

 private:
  /// Shared detection pipeline; `options` may differ from options_ (e.g.
  /// Satisfies caps max_subsets at 1 without copying the constraint set
  /// into a throwaway probe detector).
  ViolationSet Detect(const Database& db, const DetectorOptions& options) const;

  std::shared_ptr<const Schema> schema_;
  std::vector<DenialConstraint> constraints_;
  DetectorOptions options_;

  // Pass-2 counters, bumped once per constraint per detection. Detect is
  // const and may run concurrently from session threads, so updates are
  // mutex-guarded.
  mutable std::mutex stats_mu_;
  mutable std::vector<ConstraintStats> stats_;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_DETECTOR_H_
