// Randomized parity suite for the sharded violation detector: for every
// thread count the detection result must be bit-identical — the subsets
// list order included — to the single-threaded path. This is the
// enforcement arm of the deterministic-merge guarantee in
// DetectorOptions::num_threads; any scheduling-dependent ordering,
// deduplication, cap or deadline decision shows up here as a diff.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/value.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/engine.h"
#include "properties/constructions.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

const size_t kThreadCounts[] = {1, 2, 4, 8};

// Full observable state of a ViolationSet, order included.
void ExpectIdentical(const ViolationSet& expected, const ViolationSet& actual,
                     const std::string& where) {
  EXPECT_EQ(expected.minimal_subsets(), actual.minimal_subsets()) << where;
  EXPECT_EQ(expected.num_minimal_violations(),
            actual.num_minimal_violations())
      << where;
  EXPECT_EQ(expected.truncated(), actual.truncated()) << where;
  EXPECT_EQ(expected.SelfInconsistentFacts(), actual.SelfInconsistentFacts())
      << where;
  EXPECT_EQ(expected.ProblematicFacts(), actual.ProblematicFacts()) << where;
}

// Runs FindViolations under every thread count and checks each result
// against the 1-thread reference. Returns the reference for further
// assertions.
ViolationSet CheckParity(std::shared_ptr<const Schema> schema,
                         const std::vector<DenialConstraint>& dcs,
                         const Database& db, DetectorOptions base,
                         const std::string& where) {
  base.num_threads = 1;
  const ViolationDetector reference(schema, dcs, base);
  ViolationSet expected = reference.FindViolations(db);
  for (const size_t threads : kThreadCounts) {
    DetectorOptions options = base;
    options.num_threads = threads;
    const ViolationDetector detector(schema, dcs, options);
    ExpectIdentical(expected, detector.FindViolations(db),
                    where + " threads=" + std::to_string(threads));
    EXPECT_EQ(reference.Satisfies(db), detector.Satisfies(db))
        << where << " Satisfies threads=" << threads;
  }
  return expected;
}

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

// Seeds x sizes x domains (noise level: small domains collide constantly,
// large domains rarely), blocking on and off.
TEST(ParallelParity, RandomizedFdSweep) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const size_t facts : {7u, 40u, 150u}) {
      for (const int64_t domain : {2, 5, 25}) {
        const Database db =
            MakeRandomDatabase(schema, 0, facts, domain, seed);
        for (const bool blocking : {true, false}) {
          DetectorOptions options;
          options.use_blocking = blocking;
          CheckParity(schema, dcs, db, options,
                      "seed=" + std::to_string(seed) +
                          " facts=" + std::to_string(facts) +
                          " domain=" + std::to_string(domain) +
                          " blocking=" + std::to_string(blocking));
        }
      }
    }
  }
}

// Unary constraints produce self-inconsistent facts, which both gate the
// pair phase (minimality) and exercise the singleton ordering.
TEST(ParallelParity, SelfInconsistentFacts) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Database db = MakeRandomDatabase(schema, 0, 60, 4, seed);
    CheckParity(schema, dcs, db, DetectorOptions{},
                "self-inconsistent seed=" + std::to_string(seed));
  }
}

// K-ary (here 3-ary and 4-ary) constraints run through the sequential
// enumeration + minimality filter, which must interleave deterministically
// with the sharded binary phase.
TEST(ParallelParity, KAryConstraints) {
  for (const size_t k : {3u, 4u}) {
    const auto inst = MakeCardinalityDcInstance(9, k);
    const ViolationSet expected =
        CheckParity(inst.schema, {inst.at_most_k_minus_1}, inst.db,
                    DetectorOptions{}, "cardinality k=" + std::to_string(k));
    EXPECT_FALSE(expected.empty());
  }
}

// Paper datasets after noise: realistic schemas, mixed predicate shapes
// (equalities, disequalities, order comparisons, constants).
TEST(ParallelParity, NoisyPaperDatasets) {
  Rng rng(99);
  for (const DatasetId id : AllDatasets()) {
    const Dataset dataset = MakeDataset(id, 80, 7);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng run = rng.Fork();
    for (int i = 0; i < 25; ++i) noise.Step(db, run);
    CheckParity(dataset.schema, dataset.constraints, db, DetectorOptions{},
                std::string("dataset ") + DatasetName(id));
  }
}

// max_subsets truncation must stop at the same canonical prefix for every
// thread count — chunks computed beyond the stop point are discarded by
// the ordered merge, never emitted.
TEST(ParallelParity, TruncationByMaxSubsets) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = MakeRandomDatabase(schema, 0, 120, 3, 21);
  DetectorOptions unlimited;
  const ViolationDetector full(schema, dcs, unlimited);
  const ViolationSet everything = full.FindViolations(db);
  ASSERT_GT(everything.num_minimal_subsets(), 10u);

  for (const size_t cap : {1u, 3u, 9u}) {
    DetectorOptions options;
    options.max_subsets = cap;
    const ViolationSet expected = CheckParity(
        schema, dcs, db, options, "cap=" + std::to_string(cap));
    EXPECT_TRUE(expected.truncated());
    EXPECT_EQ(expected.num_minimal_subsets(), cap);
    // The truncated result is exactly the canonical prefix of the full one.
    for (size_t s = 0; s < cap; ++s) {
      EXPECT_EQ(expected.minimal_subsets()[s], everything.minimal_subsets()[s]);
    }
  }
}

// Deadlines are consulted only at merge points (canonical order), so the
// two regimes every test can rely on — already expired and never expiring
// — are exactly deterministic across thread counts too.
TEST(ParallelParity, DeadlineRegimes) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = MakeRandomDatabase(schema, 0, 90, 3, 33);

  DetectorOptions generous;
  generous.deadline_seconds = 3600.0;
  const ViolationSet untruncated =
      CheckParity(schema, dcs, db, generous, "generous deadline");
  EXPECT_FALSE(untruncated.truncated());

  DetectorOptions expired;
  expired.deadline_seconds = 1e-9;
  const ViolationSet tiny = CheckParity(schema, dcs, db, expired,
                                        "expired deadline");
  EXPECT_TRUE(tiny.truncated());
  EXPECT_EQ(tiny.num_minimal_subsets(), 1u);  // stops after the first Add
  EXPECT_EQ(tiny.minimal_subsets()[0], untruncated.minimal_subsets()[0]);
}

// num_threads = 0 resolves to the hardware thread count and must agree
// with the explicit counts.
TEST(ParallelParity, AutoThreadCount) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = MakeRandomDatabase(schema, 0, 70, 4, 55);
  DetectorOptions sequential;
  const ViolationDetector reference(schema, dcs, sequential);
  DetectorOptions automatic;
  automatic.num_threads = 0;
  const ViolationDetector detector(schema, dcs, automatic);
  ExpectIdentical(reference.FindViolations(db), detector.FindViolations(db),
                  "auto threads");
}

// End-to-end: identical BatchReports from MeasureEngine::EvaluateAll for
// every thread count, including a truncated detection pass. Measure values
// must match bit-for-bit (same violations in, same arithmetic out);
// timings are ignored.
TEST(ParallelParity, MeasureEngineBatchReports) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = MakeRandomDatabase(schema, 0, 100, 4, 77);
  for (const size_t cap : {0u, 5u}) {
    MeasureEngineOptions options;
    options.registry.include_mc = false;
    options.detector.max_subsets = cap;
    options.detector.num_threads = 1;
    const MeasureEngine reference(schema, dcs, options);
    const BatchReport expected = reference.EvaluateAll(db);
    for (const size_t threads : kThreadCounts) {
      options.detector.num_threads = threads;
      const MeasureEngine engine(schema, dcs, options);
      const BatchReport report = engine.EvaluateAll(db);
      const std::string where =
          "cap=" + std::to_string(cap) + " threads=" + std::to_string(threads);
      EXPECT_EQ(expected.num_minimal_subsets, report.num_minimal_subsets)
          << where;
      EXPECT_EQ(expected.truncated, report.truncated) << where;
      ASSERT_EQ(expected.measures.size(), report.measures.size()) << where;
      for (size_t m = 0; m < expected.measures.size(); ++m) {
        EXPECT_EQ(expected.measures[m].name, report.measures[m].name) << where;
        EXPECT_EQ(expected.measures[m].value, report.measures[m].value)
            << where << " measure " << expected.measures[m].name;
      }
    }
  }
}

// Large enough that every sharded phase actually chunks (>= 2 chunks of
// >= 64 rows): the pass-1 scan, the blocking bucket build, and the probe
// all run their parallel paths and must still merge to the sequential
// result, including the bucket j-order the probe's discovery order
// depends on.
TEST(ParallelParity, ShardedBucketBuildAndPassOne) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));  // unary: pass 1 work
  for (const uint64_t seed : {101u, 102u}) {
    for (const int64_t domain : {3, 12}) {
      const Database db = MakeRandomDatabase(schema, 0, 400, domain, seed);
      for (const bool blocking : {true, false}) {
        DetectorOptions options;
        options.use_blocking = blocking;
        const ViolationSet expected = CheckParity(
            schema, dcs, db, options,
            "sharded-build seed=" + std::to_string(seed) +
                " domain=" + std::to_string(domain) +
                " blocking=" + std::to_string(blocking));
        EXPECT_FALSE(expected.empty());
        EXPECT_FALSE(expected.SelfInconsistentFacts().empty());
      }
    }
  }
}

// K-ary enumeration sharded over outermost-variable row ranges: a 3-ary DC
// with enough rows to split into multiple chunks. The support sets
// (including size-2 supports from repeated facts across variables, which
// exercise the minimality filter) must come out in the sequential
// discovery order for every thread count.
TEST(ParallelParity, ShardedKAryEnumeration) {
  const auto schema = MakeAbcSchema();
  // !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C)
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  for (const uint64_t seed : {7u, 8u}) {
    const Database db = MakeRandomDatabase(schema, 0, 150, 30, seed);
    const ViolationSet expected =
        CheckParity(schema, {dc}, db, DetectorOptions{},
                    "sharded k-ary seed=" + std::to_string(seed));
    EXPECT_FALSE(expected.empty());
  }
}

// Cooperative deadline polling: a pre-expired deadline on a large
// violation-free instance must truncate — pre-PR, a probe that never found
// a witness never consulted the clock and ran to completion. Poll points
// are aligned to global row indices, so the (empty) truncated result is
// still identical for every thread count.
TEST(ParallelParity, CooperativeDeadlineCrossRelationProbe) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const RelationId s = schema->AddRelation("S", {"A", "B"});
  Database db(schema);
  for (int64_t i = 0; i < 1500; ++i) {
    db.Insert(Fact(r, {Value(i), Value(i)}));
    db.Insert(Fact(s, {Value(i + 1000000), Value(i)}));
  }
  // t in R, t' in S: never matches on A, so the probe finds nothing.
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
  const DenialConstraint dc({r, s}, std::move(preds));

  for (const bool blocking : {true, false}) {
    DetectorOptions generous;
    generous.use_blocking = blocking;
    generous.deadline_seconds = 3600.0;
    const ViolationSet full =
        CheckParity(schema, {dc}, db, generous,
                    "cooperative generous blocking=" + std::to_string(blocking));
    EXPECT_FALSE(full.truncated());
    EXPECT_TRUE(full.empty());

    DetectorOptions expired;
    expired.use_blocking = blocking;
    expired.deadline_seconds = 1e-9;
    const ViolationSet tiny =
        CheckParity(schema, {dc}, db, expired,
                    "cooperative expired blocking=" + std::to_string(blocking));
    EXPECT_TRUE(tiny.truncated());
    EXPECT_TRUE(tiny.empty());
  }
}

// Same for the pass-1 self-inconsistency scan: a unary constraint whose
// body never holds keeps the scan busy (FDs are TriviallyNotUnary and
// skipped) without yielding a single witness; the pre-expired deadline
// must stop the scan at the first global poll point — empty + truncated
// for every thread count.
TEST(ParallelParity, CooperativeDeadlinePassOneScan) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.A)"));
  const Database db = MakeRandomDatabase(schema, 0, 1500, 100000, 5);
  DetectorOptions expired;
  expired.deadline_seconds = 1e-9;
  const ViolationSet tiny =
      CheckParity(schema, dcs, db, expired, "cooperative pass-1 expired");
  EXPECT_TRUE(tiny.truncated());
  EXPECT_TRUE(tiny.empty());
}

// Cooperative deadline polling inside the k-ary enumeration's *inner*
// variable loops: polls land on global prefix indices (P_v = P_{v-1} * n_v
// + i_v), so a pathological outer row no longer runs O(n^{k-1}) inner work
// between clock checks — and a pre-expired deadline truncates at the same
// canonical node for every thread count. Pre-kernel, the enumeration
// polled only per outer row: on this 150-row instance (< 1024 outer rows)
// a pre-expired deadline on a violation-free body would never have been
// noticed mid-enumeration at all.
TEST(ParallelParity, CooperativeDeadlineKAryInnerLoops) {
  const auto schema = MakeAbcSchema();
  // !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C): no predicate gates the
  // outermost level, so every (i0, i1) node is visited and the first
  // inner-loop poll point is reached deterministically.
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  const Database db = MakeRandomDatabase(schema, 0, 150, 30, 19);

  DetectorOptions generous;
  generous.deadline_seconds = 3600.0;
  const ViolationSet full =
      CheckParity(schema, {dc}, db, generous, "k-ary generous deadline");
  EXPECT_FALSE(full.truncated());

  DetectorOptions expired;
  expired.deadline_seconds = 1e-9;
  const ViolationSet tiny =
      CheckParity(schema, {dc}, db, expired, "k-ary expired deadline");
  EXPECT_TRUE(tiny.truncated());
  // The truncated result is a canonical prefix of the full one.
  ASSERT_LE(tiny.num_minimal_subsets(), full.num_minimal_subsets());
  for (size_t s = 0; s < tiny.num_minimal_subsets(); ++s) {
    EXPECT_EQ(tiny.minimal_subsets()[s], full.minimal_subsets()[s]);
  }

  // A violation-free k-ary body still stops at an inner poll point: the
  // never-true predicate sits at the deepest variable (t2.C < t2.C), so
  // the inner loops run in full without ever reaching a merge — empty +
  // truncated, identically for every thread count.
  std::vector<Predicate> barren;
  barren.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  barren.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  barren.emplace_back(Operand{2, 2}, CompareOp::kLt, Operand{2, 2});
  const DenialConstraint never(std::vector<RelationId>(3, 0),
                               std::move(barren));
  const ViolationSet empty_truncated =
      CheckParity(schema, {never}, db, expired, "k-ary barren expired");
  EXPECT_TRUE(empty_truncated.truncated());
  EXPECT_TRUE(empty_truncated.empty());
}

// Measures over a parallel detection pass: every measure is a pure
// function of MI, so the BatchReport (names, order, values, detection
// metadata — timings excluded) must equal the 1-thread one bit for bit.
// Fuzzed over noisy paper datasets.
TEST(ParallelParity, MeasureEngineThreadsFuzz) {
  Rng rng(1234);
  for (const DatasetId id : AllDatasets()) {
    const Dataset dataset = MakeDataset(id, 80, 11);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng run = rng.Fork();
    for (int i = 0; i < 25; ++i) noise.Step(db, run);

    MeasureEngineOptions options;
    options.registry.include_mc = false;
    options.detector.num_threads = 1;
    const MeasureEngine reference(dataset.schema, dataset.constraints,
                                  options);
    const BatchReport expected = reference.EvaluateAll(db);
    options.detector.num_threads = 4;
    const MeasureEngine engine(dataset.schema, dataset.constraints, options);
    const BatchReport report = engine.EvaluateAll(db);
    const std::string where = std::string("dataset ") + DatasetName(id);
    EXPECT_EQ(expected.num_minimal_subsets, report.num_minimal_subsets)
        << where;
    EXPECT_EQ(expected.truncated, report.truncated) << where;
    ASSERT_EQ(expected.measures.size(), report.measures.size()) << where;
    for (size_t m = 0; m < expected.measures.size(); ++m) {
      EXPECT_EQ(expected.measures[m].name, report.measures[m].name) << where;
      EXPECT_EQ(expected.measures[m].value, report.measures[m].value)
          << where << " measure " << expected.measures[m].name;
    }
  }
}

// ---- OrderedStealingFor: the work-stealing range scheduler the detector
// phases ride on.

// Nested fan-out: a compute that itself runs an OrderedStealingFor. The
// consumer helps compute unclaimed ranges while it waits, so this
// completes even when every pool worker is occupied by an outer index;
// without helping it could deadlock on a saturated pool.
TEST(OrderedStealingForTest, NestedFanOutCompletes) {
  std::vector<size_t> outer_sums(8, 0);
  OrderedStealingFor(
      4, outer_sums.size(), 1,
      [&](IndexRange r) {
        for (size_t c = r.begin; c < r.end; ++c) {
          std::vector<size_t> inner(16, 0);
          OrderedStealingFor(
              4, inner.size(), 1,
              [&](IndexRange ir) {
                for (size_t i = ir.begin; i < ir.end; ++i) inner[i] = i + 1;
              },
              [&](IndexRange ir) {
                for (size_t i = ir.begin; i < ir.end; ++i) {
                  outer_sums[c] += inner[i];
                }
                return true;
              });
        }
      },
      [&](IndexRange r) {
        for (size_t c = r.begin; c < r.end; ++c) {
          EXPECT_EQ(outer_sums[c], 136u);  // 1 + ... + 16
        }
        return true;
      });
}

// Per-index ordered consumption with cancellation at grain 1, every
// shape: the consumed indices are exactly the prefix before the veto.
TEST(OrderedStealingForTest, ConsumesInOrderAndCancels) {
  for (const size_t threads : kThreadCounts) {
    for (const size_t n : {0u, 1u, 7u, 64u}) {
      std::vector<size_t> consumed;
      std::vector<size_t> computed(n, 0);
      OrderedStealingFor(
          threads, n, 1,
          [&](IndexRange r) {
            for (size_t i = r.begin; i < r.end; ++i) computed[i] = i + 1;
          },
          [&](IndexRange r) {
            for (size_t i = r.begin; i < r.end; ++i) {
              EXPECT_EQ(computed[i], i + 1);  // compute happened-before
              consumed.push_back(i);
              if (consumed.size() == 5) return false;  // cancel after 5
            }
            return true;
          });
      const size_t expected = std::min<size_t>(n, 5);
      ASSERT_EQ(consumed.size(), expected);
      for (size_t i = 0; i < expected; ++i) EXPECT_EQ(consumed[i], i);
    }
  }
}

// Claimed sub-ranges must be consumed as contiguous ascending coverage of
// [0, n) — whatever the workers stole — and every index's compute must
// happen-before its consume.
TEST(OrderedStealingForTest, CoversRangeInAscendingOrder) {
  for (const size_t threads : kThreadCounts) {
    for (const size_t n : {0u, 1u, 5u, 64u, 257u, 1000u}) {
      for (const size_t grain : {1u, 7u, 64u}) {
        std::vector<size_t> computed(n, 0);
        size_t cursor = 0;
        OrderedStealingFor(
            threads, n, grain,
            [&](IndexRange r) {
              for (size_t i = r.begin; i < r.end; ++i) computed[i] = i + 1;
            },
            [&](IndexRange r) {
              EXPECT_EQ(r.begin, cursor);  // contiguous, ascending
              EXPECT_LT(r.begin, r.end);
              for (size_t i = r.begin; i < r.end; ++i) {
                EXPECT_EQ(computed[i], i + 1);
              }
              cursor = r.end;
              return true;
            });
        EXPECT_EQ(cursor, n)
            << "threads=" << threads << " n=" << n << " grain=" << grain;
      }
    }
  }
}

// Cancellation: consume vetoes after a fixed number of indices; the
// consumed prefix must end exactly at the vetoed range's boundary and
// nothing past it may ever be consumed, for every thread count.
TEST(OrderedStealingForTest, CancellationStopsConsumptionAtVeto) {
  for (const size_t threads : kThreadCounts) {
    constexpr size_t kN = 500;
    size_t consumed_end = 0;
    size_t vetoed_at = kN + 1;
    OrderedStealingFor(
        threads, kN, 8, [](IndexRange) {},
        [&](IndexRange r) {
          EXPECT_EQ(r.begin, consumed_end);
          consumed_end = r.end;
          if (consumed_end >= 40) {
            vetoed_at = consumed_end;
            return false;
          }
          return true;
        });
    EXPECT_GE(consumed_end, 40u);
    EXPECT_EQ(consumed_end, vetoed_at) << "consumed past the veto";
  }
}

// Skewed cost adversary: index 0 costs ~1000x the rest. A static split
// would serialize behind the fat chunk's owner; stealing must still cover
// everything, keep the canonical order, and compute each index exactly
// once (atomic counters catch double execution by racing stealers).
TEST(OrderedStealingForTest, SkewedCostComputesEachIndexOnce) {
  for (const size_t threads : kThreadCounts) {
    constexpr size_t kN = 300;
    std::vector<std::atomic<int>> times_computed(kN);
    for (auto& c : times_computed) c.store(0);
    // Defeats dead-code elimination; atomic because every worker writes it.
    std::atomic<uint64_t> sink{0};
    size_t cursor = 0;
    OrderedStealingFor(
        threads, kN, 4,
        [&](IndexRange r) {
          for (size_t i = r.begin; i < r.end; ++i) {
            const size_t spin = i == 0 ? 2000000 : 2000;
            uint64_t acc = 0;
            for (size_t s = 0; s < spin; ++s) acc += s * 2654435761u;
            sink.store(acc, std::memory_order_relaxed);
            times_computed[i].fetch_add(1);
          }
        },
        [&](IndexRange r) {
          EXPECT_EQ(r.begin, cursor);
          cursor = r.end;
          return true;
        });
    EXPECT_EQ(cursor, kN);
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(times_computed[i].load(), 1) << "index " << i;
    }
  }
}

// ---- Detector-level skew adversaries: one giant blocking bucket and a
// skewed k-ary outer loop — the workloads that serialized the old static
// chunking — must stay bit-identical across thread counts.

// 60% of rows share one blocking key, so one bucket dominates both the
// bucket build and the probe phase.
TEST(ParallelParity, GiantHotBlockingBucket) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  Database db(schema);
  Rng rng(4242);
  for (size_t i = 0; i < 600; ++i) {
    const int64_t a = i % 5 < 3 ? 0 : rng.UniformInt(1, 40);
    db.Insert(Fact(0, {Value(a), Value(rng.UniformInt(0, 9)),
                       Value(rng.UniformInt(0, 999))}));
  }
  for (const bool blocking : {true, false}) {
    DetectorOptions options;
    options.use_blocking = blocking;
    const ViolationSet expected =
        CheckParity(schema, dcs, db, options,
                    "hot-bucket blocking=" + std::to_string(blocking));
    EXPECT_FALSE(expected.empty());
  }
}

// K-ary skew: the expensive inner enumeration fires only for outer rows in
// the hot group, clustered at the front of the row order — the worst case
// for equal-width outer chunks.
TEST(ParallelParity, SkewedKAryOuterRows) {
  const auto schema = MakeAbcSchema();
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  Database db(schema);
  Rng rng(777);
  for (size_t i = 0; i < 160; ++i) {
    // First quarter: one hot join key. Rest: near-unique keys.
    const int64_t a = i < 40 ? 0 : static_cast<int64_t>(1000 + i);
    db.Insert(Fact(0, {Value(a), Value(rng.UniformInt(0, 3)),
                       Value(rng.UniformInt(0, 50))}));
  }
  const ViolationSet expected =
      CheckParity(schema, {dc}, db, DetectorOptions{}, "skewed k-ary");
  EXPECT_FALSE(expected.empty());
}

}  // namespace
}  // namespace dbim
