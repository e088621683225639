#include "violations/detector.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/value_pool.h"
#include "violations/eval_kernel.h"

namespace dbim {

namespace {

// The detector is a *driver* over the shared eval kernel
// (violations/eval_kernel.h): predicate plans, interned-row evaluation,
// blocking-key hashing and the k-ary enumeration all live there, shared
// with the incremental index. What remains here is the batch pipeline —
// pass structure, sharding, the ordered merges that make results
// bit-identical for every thread count, and the caps/deadline bookkeeping.

// Shared mutable state threaded through the detection passes.
// (BlockingKeys / ExtractBlockingKeys live in constraints/dc.h, shared with
// the incremental index's per-fact probes.)
struct DetectionState {
  ViolationSet result;
  std::unordered_set<FactId> self_inconsistent;
  const DetectorOptions* options;
  Deadline deadline{0.0};
  bool stop = false;

  void NoteLimits() {
    if (options->max_subsets > 0 &&
        result.num_minimal_subsets() >= options->max_subsets) {
      result.set_truncated(true);
      stop = true;
    }
    if (deadline.Expired()) {
      result.set_truncated(true);
      stop = true;
    }
  }
};

// Scheduling grain shared by every parallel phase (pass-1 scan, probe,
// k-ary enumeration): the work-stealing scheduler never
// claims a sub-range smaller than this many rows, bounding per-claim
// scheduling overhead. Claims start much coarser and shrink toward the
// tail (see OrderedStealingFor), so skewed per-row costs cannot serialize
// a phase on one fat chunk.
constexpr size_t kMinProbeChunkRows = 64;

// Parallel-path scaffolding shared by the sharded phases (pass-1 scan,
// k-ary enumeration, binary probe): work-stealing workers
// run `shard(range, buffer)` over scheduler-chosen sub-ranges of [0, n) —
// `shard` returns true when it stopped at an expired cooperative deadline
// poll — and the range-private buffers are consumed in canonical
// ascending index order with `merge` (which returns false to stop
// consumption: a cap or deadline decision at a merge point). Because
// every shard emits per row in row order and all cross-range decisions
// live in `merge`, the merged stream is the sequential discovery order no
// matter where the scheduler cut the range boundaries — the concatenation
// rule OrderedStealingFor's determinism contract requires. A consumed
// range whose shard expired has its partial buffer merged first — a
// canonical prefix, since poll points are global-index-aligned — then
// `on_expired()` runs and consumption stops, cancelling unclaimed
// territory.
template <typename Buffer, typename ShardFn, typename MergeFn,
          typename ExpiredFn>
void ParallelPhase(size_t num_threads, size_t n, ShardFn&& shard,
                   MergeFn&& merge, ExpiredFn&& on_expired) {
  struct ShardResult {
    Buffer buffer;
    bool expired = false;
  };
  std::mutex mu;
  std::map<size_t, ShardResult> results;  // keyed by range.begin
  OrderedStealingFor(
      num_threads, n, kMinProbeChunkRows,
      [&](IndexRange range) {
        ShardResult r;
        r.expired = shard(range, r.buffer);
        std::lock_guard<std::mutex> lock(mu);
        results.emplace(range.begin, std::move(r));
      },
      [&](IndexRange range) {
        ShardResult r;
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = results.find(range.begin);
          r = std::move(it->second);
          results.erase(it);  // range consumed; free the buffer eagerly
        }
        if (!merge(r.buffer)) return false;
        if (r.expired) {
          on_expired();
          return false;
        }
        return true;
      });
}

// The binary probe plan of one constraint, built once per detection and
// read by every shard strictly read-only.
//
// A probe row's candidate block is its equality bucket, or the whole
// variable-1 relation when the body has no key or blocking is off. All
// blocks live in one array, `rows`: bucket b spans [bucket_begin[b],
// bucket_begin[b + 1]), and `bucket_of` maps a key hash to its bucket (the
// unblocked relation is bucket 0). Inside a block, rows ascend when
// nothing narrows it; otherwise they are ordered by (`entry_keys`, row),
// where `entry_keys` holds each row's narrowing key — an order rank, or a
// class id for `!=` — so a binary search cuts the rows a probe row can
// satisfy into one or two contiguous runs. Hash collisions share a bucket;
// BodyHolds rejects them like any other failing pair. When a second ranked
// order predicate filters the runs, `zone_min` / `zone_max` bound its
// t'-side rank over each kZoneRows entries of `rows`, so a scan skips whole
// zones no row of which can pass; on data that mostly satisfies its
// constraints the two ranks move together, and nearly every zone outside
// the probe row's band is skipped.
struct BinaryProbe {
  const DcEval* eval = nullptr;
  const Database::RelationBlock* r0 = nullptr;
  const Database::RelationBlock* r1 = nullptr;
  bool same_relation = false;
  BlockingKeys keys;
  bool blocked = false;
  std::vector<uint32_t> rows;
  std::vector<uint32_t> entry_keys;  // narrowing key per entry of rows
  std::unordered_map<uint64_t, uint32_t> bucket_of;  // key hash -> bucket
  std::vector<uint32_t> bucket_begin;
  std::vector<uint32_t> zone_min;
  std::vector<uint32_t> zone_max;
  // The narrowing predicate `t[a0] narrow_op t'[a1]` on per-row keys:
  // order ranks, or class ids for `!=`. Null keys: blocks are scanned
  // whole.
  CompareOp narrow_op = CompareOp::kLt;
  const uint32_t* probe_keys = nullptr;  // per r0 row
  const uint32_t* block_keys = nullptr;  // per r1 row
  // Ranked order predicates; ranks[0] narrows when there is one, and
  // ranks[first_filter..] filter candidates with integer compares.
  std::vector<RankedOrderPredicate> ranks;
  size_t first_filter = 0;
  std::vector<uint8_t> skip0;  // self-inconsistent r0 rows
  std::vector<uint8_t> skip1;  // self-inconsistent r1 rows
};

constexpr uint32_t kZoneRows = 32;

// Chooses the narrowing predicate of `probe`. A ranked order predicate wins
// over a `!=` predicate: its range is usually far narrower than
// "everything but one class". Plain nested-loop mode (blocking off)
// narrows nothing and filters nothing, so the ablation baseline stays the
// textbook join.
void PlanNarrowing(BinaryProbe& probe, bool use_blocking) {
  if (!use_blocking) return;
  probe.ranks = CompileOrderRanks(*probe.eval, *probe.r0, *probe.r1);
  if (!probe.ranks.empty()) {
    probe.narrow_op = probe.ranks[0].op;
    probe.probe_keys = probe.ranks[0].rank0.data();
    probe.block_keys = probe.ranks[0].rank1.data();
    probe.first_filter = 1;
    return;
  }
  for (const Predicate& p : probe.eval->dc().predicates()) {
    if (!p.IsCrossVariable() || p.op() != CompareOp::kNe) continue;
    const CrossPredicate cross = NormalizeCross(p);
    probe.narrow_op = CompareOp::kNe;
    probe.probe_keys = probe.r0->class_columns[cross.a0].data();
    probe.block_keys = probe.r1->class_columns[cross.a1].data();
    return;
  }
}

// Lays the variable-1 rows out into `probe`'s blocks (see BinaryProbe):
// bucket ids in first-seen order, a counting sort by bucket that keeps rows
// ascending inside each, then a sort of each narrowed block by key. The
// bucket hashes are computed in ascending row order with cooperative
// deadline polls on the row index; returns true when the deadline expired
// mid-build, leaving the index unusable.
bool BuildBlocks(BinaryProbe& probe, const Deadline& deadline) {
  const Database::RelationBlock& r1 = *probe.r1;
  const uint32_t n = static_cast<uint32_t>(r1.num_rows());
  probe.rows.resize(n);
  if (probe.blocked) {
    std::vector<uint32_t> bucket(n);
    probe.bucket_of.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      if (PollDeadline(j, deadline)) return true;
      const uint64_t hash = HashKeyClasses(RowRef{&r1, j}, probe.keys.var1);
      const auto next = static_cast<uint32_t>(probe.bucket_of.size());
      bucket[j] = probe.bucket_of.try_emplace(hash, next).first->second;
    }
    probe.bucket_begin.assign(probe.bucket_of.size() + 1, 0);
    for (const uint32_t b : bucket) ++probe.bucket_begin[b + 1];
    for (size_t b = 1; b < probe.bucket_begin.size(); ++b) {
      probe.bucket_begin[b] += probe.bucket_begin[b - 1];
    }
    std::vector<uint32_t> fill(probe.bucket_begin.begin(),
                               probe.bucket_begin.end() - 1);
    for (uint32_t j = 0; j < n; ++j) probe.rows[fill[bucket[j]]++] = j;
  } else {
    probe.bucket_begin = {0, n};
    for (uint32_t j = 0; j < n; ++j) probe.rows[j] = j;
  }
  if (probe.probe_keys == nullptr) return false;

  probe.entry_keys.resize(n);
  std::vector<uint64_t> packed;  // key << 32 | row
  for (size_t b = 0; b + 1 < probe.bucket_begin.size(); ++b) {
    const uint32_t begin = probe.bucket_begin[b];
    const uint32_t end = probe.bucket_begin[b + 1];
    packed.clear();
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t j = probe.rows[k];
      packed.push_back(static_cast<uint64_t>(probe.block_keys[j]) << 32 | j);
    }
    std::sort(packed.begin(), packed.end());
    for (uint32_t k = begin; k < end; ++k) {
      probe.rows[k] = static_cast<uint32_t>(packed[k - begin]);
      probe.entry_keys[k] = static_cast<uint32_t>(packed[k - begin] >> 32);
    }
  }
  if (probe.first_filter < probe.ranks.size()) {
    const std::vector<uint32_t>& rank1 = probe.ranks[probe.first_filter].rank1;
    const size_t zones = (n + kZoneRows - 1) / kZoneRows;
    probe.zone_min.assign(zones, UINT32_MAX);
    probe.zone_max.assign(zones, 0);
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t r = rank1[probe.rows[k]];
      uint32_t& lo = probe.zone_min[k / kZoneRows];
      uint32_t& hi = probe.zone_max[k / kZoneRows];
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
  }
  return false;
}

// One shard of the binary-constraint probe phase: probes rows
// [range.begin, range.end) of the variable-0 relation block and feeds
// every surviving candidate pair — body verified, self-inconsistent facts
// and reflexive matches filtered — to `emit(a, b)` (a < b or a == b
// cross-relation) in the canonical discovery order: probe row ascending,
// inner row ascending within. Each probe row's candidates are its block,
// narrowed by the plan's index to the rows that can satisfy the narrowing
// predicate; the remaining ranked order predicates filter them with
// integer compares, BodyHolds verifies the survivors, and narrowed
// survivors are sorted back into inner-row order before they are emitted.
// Narrowing and filtering only drop pairs whose body fails, so the emitted
// stream is exactly the full nested loop's. `emit` returning false stops
// the shard; worker shards never stop (they buffer into chunk-private
// vectors, and deduplication, the subset cap and the deadline — all
// global-order-dependent — are applied by the ordered merge, making
// results bit-identical for any thread count), while the sequential fast
// path merges inline and keeps the first-witness early exit that
// Satisfies' max_subsets = 1 probes rely on.
//
// Deadline polls sit on global indices: the probe row when blocked, the
// pair index i * |r1| + j otherwise (see kDeadlinePollInterval). A
// narrowed row skips most pair indices, so the poll points it passes are
// checked lazily — before the next emitted pair at or beyond one, and at
// the next row start — which cuts the emitted stream at exactly the same
// pair as checking each point in turn. Returns true when the shard stopped
// at an expired poll, false when it ran to completion or `emit` stopped it.
template <typename Emit>
bool ProbeShard(const BinaryProbe& in, IndexRange range,
                const Deadline& deadline, Emit&& emit) {
  const uint64_t inner = in.r1->num_rows();
  const uint64_t stride = in.blocked ? 1 : inner;
  auto pair_index = [&](uint32_t i, uint32_t j) {
    return in.blocked ? i : i * inner + j;
  };
  // The first poll point not yet checked (index 0 is never one).
  uint64_t next_poll = std::max<uint64_t>(
      kDeadlinePollInterval,
      (range.begin * stride + kDeadlinePollInterval - 1) /
          kDeadlinePollInterval * kDeadlinePollInterval);
  auto expired_by = [&](uint64_t index) {
    if (index < next_poll) return false;
    if (deadline.Expired()) return true;
    next_poll = (index / kDeadlinePollInterval + 1) * kDeadlinePollInterval;
    return false;
  };

  const DcEval& eval = *in.eval;
  std::vector<uint32_t> hits;
  for (uint32_t i = static_cast<uint32_t>(range.begin);
       i < static_cast<uint32_t>(range.end); ++i) {
    if (expired_by(pair_index(i, 0))) return true;
    if (in.skip0[i]) continue;
    const RowRef probe{in.r0, i};
    uint32_t begin = 0;
    uint32_t end = static_cast<uint32_t>(in.rows.size());
    if (in.blocked) {
      const auto it = in.bucket_of.find(HashKeyClasses(probe, in.keys.var0));
      if (it == in.bucket_of.end()) continue;
      begin = in.bucket_begin[it->second];
      end = in.bucket_begin[it->second + 1];
    }
    // Returns false to stop the shard; appends to `hits` instead of
    // emitting when the row is narrowed (its rows are not in j order).
    auto consider = [&](uint32_t j, bool narrowed) {
      if (in.same_relation && i == j) return true;
      if (in.skip1[j]) return true;
      for (size_t f = in.first_filter; f < in.ranks.size(); ++f) {
        if (!in.ranks[f].Holds(i, j)) return true;
      }
      const RowRef assignment[2] = {probe, RowRef{in.r1, j}};
      if (!eval.BodyHolds(assignment)) return true;
      if (narrowed) {
        hits.push_back(j);
        return true;
      }
      const FactId a = in.r0->row_ids[i];
      const FactId b = in.r1->row_ids[j];
      return emit(std::min(a, b), std::max(a, b));
    };
    const uint32_t* rows = in.rows.data();
    if (in.probe_keys == nullptr) {
      for (uint32_t k = begin; k < end; ++k) {
        if (expired_by(pair_index(i, rows[k]))) return true;
        if (!consider(rows[k], false)) return false;
      }
      continue;
    }
    // Narrowed: one or two runs of the key-sorted block.
    const uint32_t key = in.probe_keys[i];
    const uint32_t* keys = in.entry_keys.data();
    const uint32_t lower = static_cast<uint32_t>(
        std::lower_bound(keys + begin, keys + end, key) - keys);
    const uint32_t upper = static_cast<uint32_t>(
        std::upper_bound(keys + lower, keys + end, key) - keys);
    uint32_t runs[2][2] = {{begin, begin}, {begin, begin}};
    switch (in.narrow_op) {
      case CompareOp::kLt:  // t'-key > key
        runs[0][0] = upper, runs[0][1] = end;
        break;
      case CompareOp::kLe:
        runs[0][0] = lower, runs[0][1] = end;
        break;
      case CompareOp::kGt:  // t'-key < key
        runs[0][1] = lower;
        break;
      case CompareOp::kGe:
        runs[0][1] = upper;
        break;
      case CompareOp::kNe:
        runs[0][1] = lower;
        runs[1][0] = upper, runs[1][1] = end;
        break;
      case CompareOp::kEq:  // never a narrowing predicate
        break;
    }
    hits.clear();
    // Whether some row of `zone` may pass the first filter predicate.
    auto zone_may_pass = [&](uint32_t zone) {
      if (in.zone_min.empty()) return true;
      const RankedOrderPredicate& f = in.ranks[in.first_filter];
      const uint32_t r = f.rank0[i];
      switch (f.op) {
        case CompareOp::kLt:
          return r < in.zone_max[zone];
        case CompareOp::kLe:
          return r <= in.zone_max[zone];
        case CompareOp::kGt:
          return r > in.zone_min[zone];
        case CompareOp::kGe:
          return r >= in.zone_min[zone];
        default:
          return true;
      }
    };
    for (const auto& run : runs) {
      for (uint32_t k = run[0]; k < run[1];) {
        const uint32_t zone = k / kZoneRows;
        const uint32_t zone_end = std::min(run[1], (zone + 1) * kZoneRows);
        if (zone_may_pass(zone)) {
          for (; k < zone_end; ++k) consider(rows[k], true);
        }
        k = zone_end;
      }
    }
    std::sort(hits.begin(), hits.end());
    for (const uint32_t j : hits) {
      if (expired_by(pair_index(i, j))) return true;
      const FactId a = in.r0->row_ids[i];
      const FactId b = in.r1->row_ids[j];
      if (!emit(std::min(a, b), std::max(a, b))) return false;
    }
  }
  // Poll points past the last emitted pair of the range.
  const uint64_t end_index = range.end * stride;
  return end_index > range.begin * stride && expired_by(end_index - 1);
}

}  // namespace

ViolationDetector::ViolationDetector(std::shared_ptr<const Schema> schema,
                                     std::vector<DenialConstraint> constraints,
                                     DetectorOptions options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      options_(options) {
  DBIM_CHECK(schema_ != nullptr);
  stats_.resize(constraints_.size());
}

ConstraintStats ViolationDetector::constraint_stats(size_t c) const {
  DBIM_CHECK(c < stats_.size());
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_[c];
}

ViolationSet ViolationDetector::Detect(const Database& db,
                                       const DetectorOptions& options) const {
  DetectionState state;
  state.options = &options;
  state.deadline = Deadline(options.deadline_seconds);

  const ValuePool& pool = db.pool();
  const size_t num_threads = options.num_threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options.num_threads;

  // Pass 1: self-inconsistent facts. These are the singleton minimal
  // subsets, and they disqualify any larger subset containing them. The
  // scan over each constraint's relation block is sharded by row range;
  // chunk-private hit buffers merge (set inserts, order-insensitive) in
  // canonical ascending order, so the set content — and where a
  // cooperative deadline poll lands, if one fires — is the same for every
  // thread count.
  bool scan_expired = false;
  for (const DenialConstraint& dc : constraints_) {
    if (scan_expired) break;
    if (dc.TriviallyNotUnary()) continue;
    const RelationId rel0 = dc.var_relation(0);
    bool single_relation = true;
    for (const RelationId r : dc.var_relations()) {
      if (r != rel0) single_relation = false;
    }
    if (!single_relation) continue;
    const DcEval eval(dc, pool);
    const Database::RelationBlock& block = db.relation_block(rel0);
    // Returns true when the deadline expired at a poll point mid-scan.
    auto scan_rows = [&](IndexRange range, std::vector<FactId>& hits) {
      std::vector<RowRef> assignment;
      for (uint32_t i = static_cast<uint32_t>(range.begin);
           i < static_cast<uint32_t>(range.end); ++i) {
        if (PollDeadline(i, state.deadline)) return true;
        assignment.assign(dc.num_vars(), RowRef{&block, i});
        if (eval.BodyHolds(assignment.data())) {
          hits.push_back(block.row_ids[i]);
        }
      }
      return false;
    };
    if (num_threads <= 1 || block.num_rows() < 2 * kMinProbeChunkRows) {
      std::vector<FactId> hits;
      scan_expired = scan_rows(IndexRange{0, block.num_rows()}, hits);
      state.self_inconsistent.insert(hits.begin(), hits.end());
      continue;
    }
    ParallelPhase<std::vector<FactId>>(
        num_threads, block.num_rows(),
        [&](IndexRange range, std::vector<FactId>& hits) {
          return scan_rows(range, hits);
        },
        [&](std::vector<FactId>& hits) {
          state.self_inconsistent.insert(hits.begin(), hits.end());
          return true;
        },
        [&] { scan_expired = true; });
  }
  // Singleton subsets are emitted in id order so the result layout is a
  // pure function of (Sigma, D) — the anchor of the parallel-parity
  // guarantee below.
  std::vector<FactId> singletons(state.self_inconsistent.begin(),
                                 state.self_inconsistent.end());
  std::sort(singletons.begin(), singletons.end());
  for (const FactId id : singletons) {
    state.result.Add({id});
    state.NoteLimits();
    if (state.stop) return std::move(state.result);
  }
  if (scan_expired) {
    state.result.set_truncated(true);
    return std::move(state.result);
  }

  // Pass 2: binary constraints through the narrowed block probe; k-ary
  // constraints through the kernel's sharded enumeration. Constraints
  // probe in ascending index order.
  std::vector<std::vector<FactId>> kary_candidates;
  // Probes one pass-2 constraint. `probes` counts candidates reaching the
  // merge point, `fires` subsets admitted into the result; k-ary candidates
  // count when merged (pre-minimality), matching the incremental index's
  // accounting.
  auto probe_constraint = [&](const DenialConstraint& dc, uint64_t& probes,
                              uint64_t& fires) {
    const DcEval eval(dc, pool);
    if (dc.num_vars() >= 3) {
      // The enumeration is sharded over outermost-variable row ranges;
      // inner variables stay exhaustive, so concatenating shard outputs in
      // ascending chunk order reproduces the sequential discovery order.
      // The deadline is polled once per merged candidate (as the
      // sequential path always did) plus cooperatively inside the kernel's
      // enumeration (every level, global-prefix-aligned).
      const Database::RelationBlock& outer =
          db.relation_block(dc.var_relation(0));
      auto merge_support = [&](std::vector<FactId> support) {
        ++probes;
        ++fires;
        kary_candidates.push_back(std::move(support));
        if (state.deadline.Expired()) {
          state.result.set_truncated(true);
          state.stop = true;
          return false;
        }
        return true;
      };
      if (num_threads <= 1 || outer.num_rows() < 2 * kMinProbeChunkRows) {
        if (EnumerateKAry(eval, db, IndexRange{0, outer.num_rows()},
                          state.deadline, merge_support)) {
          state.result.set_truncated(true);
          state.stop = true;
        }
        return;
      }
      ParallelPhase<std::vector<std::vector<FactId>>>(
          num_threads, outer.num_rows(),
          [&](IndexRange range, std::vector<std::vector<FactId>>& found) {
            return EnumerateKAry(eval, db, range, state.deadline,
                                 [&](std::vector<FactId> support) {
                                   found.push_back(std::move(support));
                                   return true;
                                 });
          },
          [&](std::vector<std::vector<FactId>>& found) {
            for (auto& support : found) {
              if (!merge_support(std::move(support))) return false;
            }
            return true;
          },
          [&] {
            state.result.set_truncated(true);
            state.stop = true;
          });
      return;
    }
    BinaryProbe probe;
    probe.eval = &eval;
    probe.r0 = &db.relation_block(dc.var_relation(0));
    probe.r1 = &db.relation_block(dc.var_relation(1));
    probe.same_relation = dc.var_relation(0) == dc.var_relation(1);
    probe.keys = ExtractBlockingKeys(dc);
    probe.blocked = options.use_blocking && !probe.keys.empty();
    const Database::RelationBlock& r0 = *probe.r0;
    const Database::RelationBlock& r1 = *probe.r1;

    // Hash var-1 side, probe with var-0 side. Bucket keys are FNV mixes
    // of interned class ids, so blocking never hashes a Value. The blocks
    // are built on this thread (BuildBlocks); a sharded build of per-chunk
    // hash maps measured about twice as slow at 4 threads on 2-5k-row
    // relations, its merge costing what the hashing saved. An expired
    // build truncates the run before probing.
    PlanNarrowing(probe, options.use_blocking);
    if (BuildBlocks(probe, state.deadline)) {
      state.result.set_truncated(true);
      state.stop = true;
      return;  // the caller's loop breaks before the next DC
    }
    auto skip_flags = [&](const Database::RelationBlock& block,
                          RelationId relation) {
      std::vector<uint8_t> flags(block.num_rows(), 0);
      for (const FactId id : state.self_inconsistent) {
        const Database::RowLocation loc = db.Locate(id);
        if (loc.relation == relation) flags[loc.row] = 1;
      }
      return flags;
    };
    probe.skip0 = skip_flags(r0, dc.var_relation(0));
    probe.skip1 = probe.same_relation ? probe.skip0
                                      : skip_flags(r1, dc.var_relation(1));

    // Symmetric-pair dedup (FD-style bodies match both orders of a pair;
    // the per-constraint dedup keeps the (F, sigma) minimal-violation
    // count honest), the subset cap and the deadline all depend on global
    // candidate order, so they only ever advance on this thread, in
    // canonical discovery order.
    std::unordered_set<uint64_t> seen_pairs;
    auto merge_candidate = [&](FactId a, FactId b) {
      ++probes;
      const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
      if (!seen_pairs.insert(key).second) return true;
      ++fires;
      state.result.Add({a, b});
      state.NoteLimits();
      return !state.stop;
    };

    if (num_threads <= 1) {
      // Sequential fast path: candidates merge inline, pair by pair, so a
      // max_subsets stop (e.g. Satisfies' cap of 1) exits at the first
      // witness with no buffering — the pre-sharding behavior.
      if (ProbeShard(probe, IndexRange{0, r0.num_rows()},
                     state.deadline, merge_candidate)) {
        state.result.set_truncated(true);
        state.stop = true;
      }
      return;
    }

    // Parallel path: the probe phase is sharded by probe-row range.
    // Stealing workers fill range-private candidate buffers; the ordered
    // merge below consumes them on this thread in ascending index order.
    // Concatenating ranges in order reproduces the sequential discovery
    // order exactly, so the resulting ViolationSet is bit-identical for
    // every thread count; a merge-time stop cancels unclaimed territory
    // (claimed ranges finish and are discarded, a bounded overshoot). A
    // shard that stopped at a cooperative deadline poll keeps its partial
    // buffer — a canonical prefix, since poll points are
    // global-index-aligned — and the merge truncates there.
    ParallelPhase<std::vector<std::pair<FactId, FactId>>>(
        num_threads, r0.num_rows(),
        [&](IndexRange range, std::vector<std::pair<FactId, FactId>>& found) {
          return ProbeShard(probe, range, state.deadline,
                            [&](FactId a, FactId b) {
                              found.emplace_back(a, b);
                              return true;
                            });
        },
        [&](const std::vector<std::pair<FactId, FactId>>& found) {
          for (const auto& [a, b] : found) {
            if (!merge_candidate(a, b)) return false;
          }
          return true;
        },
        [&] {
          state.result.set_truncated(true);
          state.stop = true;
        });
  };
  for (size_t dci = 0; dci < constraints_.size(); ++dci) {
    if (state.stop) break;
    const DenialConstraint& dc = constraints_[dci];
    if (dc.num_vars() == 1) continue;  // covered by pass 1
    uint64_t probes = 0;
    uint64_t fires = 0;
    probe_constraint(dc, probes, fires);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_[dci].num_probes += probes;
    stats_[dci].num_fires += fires;
  }

  // Pass 3: minimality filter for k-ary candidate supports. A candidate
  // survives iff no singleton/pair of the result and no other (smaller)
  // candidate is a proper subset of it. Prior witnesses are indexed by
  // member fact, so each candidate scans only the witnesses sharing one of
  // its members — O(sum of its members' posting lists) — instead of the
  // whole result + accepted lists (the old O(c^2) scan). The candidate
  // order is canonical (size, then lexicographic), so the per-candidate
  // cooperative deadline poll lands at the same global candidate index on
  // every run; index 0 never polls, preserving "a truncated result carries
  // its first subset".
  if (!kary_candidates.empty() && !state.stop) {
    std::sort(kary_candidates.begin(), kary_candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    auto contains = [](const std::vector<FactId>& big,
                       const std::vector<FactId>& small) {
      return std::includes(big.begin(), big.end(), small.begin(), small.end());
    };
    // Witness store: the singletons/pairs already in the result, then the
    // accepted candidates as they are admitted. postings maps a member fact
    // to its witness slots; visited stamps deduplicate slots shared by
    // several members of one candidate.
    std::vector<std::vector<FactId>> witnesses;
    std::unordered_map<FactId, std::vector<uint32_t>> postings;
    auto post = [&](const std::vector<FactId>& subset) {
      const uint32_t slot = static_cast<uint32_t>(witnesses.size());
      witnesses.push_back(subset);
      for (const FactId id : subset) postings[id].push_back(slot);
    };
    for (const auto& sub : state.result.minimal_subsets()) post(sub);
    std::vector<uint32_t> visited;
    uint32_t stamp = 0;
    for (size_t ci = 0; ci < kary_candidates.size(); ++ci) {
      if (PollDeadline(ci, state.deadline)) {
        state.result.set_truncated(true);
        state.stop = true;
        break;
      }
      const auto& cand = kary_candidates[ci];
      bool minimal = true;
      for (const FactId id : cand) {
        if (state.self_inconsistent.count(id) > 0) {
          minimal = cand.size() == 1;
          break;
        }
      }
      if (minimal) {
        ++stamp;
        visited.resize(witnesses.size(), 0);
        for (const FactId id : cand) {
          const auto it = postings.find(id);
          if (it == postings.end()) continue;
          for (const uint32_t slot : it->second) {
            if (visited[slot] == stamp) continue;
            visited[slot] = stamp;
            const auto& sub = witnesses[slot];
            if (sub.size() < cand.size() && contains(cand, sub)) {
              minimal = false;
              break;
            }
          }
          if (!minimal) break;
        }
      }
      if (!minimal) continue;
      post(cand);
      state.result.Add(cand);
      state.NoteLimits();
      if (state.stop) break;
    }
  }

  return std::move(state.result);
}

ViolationSet ViolationDetector::FindViolations(const Database& db) const {
  return Detect(db, options_);
}

bool ViolationDetector::Satisfies(const Database& db) const {
  // Early exit on the first witness; runs the shared detection pipeline
  // directly instead of copying the constraint set into a probe detector.
  DetectorOptions fast = options_;
  fast.max_subsets = 1;
  // Force the sequential inline-merge path: worker shards never stop
  // mid-chunk, so a threaded probe would compute and buffer every
  // in-flight chunk before the merge sees the first witness — pure waste
  // when one pair answers the question.
  fast.num_threads = 1;
  return Detect(db, fast).empty();
}

}  // namespace dbim
