// Tests for incremental violation maintenance: the index must agree with a
// from-scratch detection after every operation, across operation kinds,
// constraint shapes, and long randomized sequences.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/value_pool.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/session.h"
#include "test_util.h"
#include "violations/conflict_graph.h"
#include "violations/incremental.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;
using testing::MakeRunningExample;

// Full-recompute reference.
ViolationSet Reference(const IncrementalViolationIndex& index,
                       std::shared_ptr<const Schema> schema,
                       const std::vector<DenialConstraint>& dcs) {
  const ViolationDetector detector(std::move(schema), dcs);
  return detector.FindViolations(index.db());
}

void ExpectAgrees(const IncrementalViolationIndex& index,
                  std::shared_ptr<const Schema> schema,
                  const std::vector<DenialConstraint>& dcs,
                  const std::string& where) {
  const ViolationSet expected = Reference(index, std::move(schema), dcs);
  EXPECT_EQ(index.NumMinimalSubsets(), expected.num_minimal_subsets())
      << where;
  EXPECT_EQ(index.NumMinimalViolations(), expected.num_minimal_violations())
      << where;
  EXPECT_EQ(index.NumProblematicFacts(), expected.ProblematicFacts().size())
      << where;
  // Snapshot contents match as sets.
  auto a = index.Snapshot().minimal_subsets();
  auto b = expected.minimal_subsets();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b) << where;
}

TEST(Incremental, InitialStateMatchesDetector) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d1);
  EXPECT_EQ(index.NumMinimalSubsets(), 7u);
  EXPECT_EQ(index.NumProblematicFacts(), 5u);
  EXPECT_FALSE(index.IsConsistent());
}

TEST(Incremental, DeletionRemovesItsSubsets) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d1);
  index.Apply(RepairOperation::Deletion(5));
  ExpectAgrees(index, example.schema, example.dcs, "after deleting f5");
  // f5 was in 4 of the 7 pairs.
  EXPECT_EQ(index.NumMinimalSubsets(), 3u);
}

TEST(Incremental, DeletionSequenceReachesConsistency) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d1);
  for (const FactId id : {2u, 4u, 5u}) {
    index.Apply(RepairOperation::Deletion(id));
    ExpectAgrees(index, example.schema, example.dcs,
                 "after deleting " + std::to_string(id));
  }
  EXPECT_TRUE(index.IsConsistent());
}

TEST(Incremental, UpdateRepairsAndIntroducesViolations) {
  const auto example = MakeRunningExample();
  const auto continent =
      example.schema->relation(example.relation).FindAttribute("Continent");
  const auto country =
      example.schema->relation(example.relation).FindAttribute("Country");
  IncrementalViolationIndex index(example.schema, example.dcs, example.d2);
  // Repair D2 back towards D0.
  index.Apply(RepairOperation::Update(2, *continent, Value("NAm")));
  ExpectAgrees(index, example.schema, example.dcs, "after fixing continent");
  index.Apply(RepairOperation::Update(2, *country, Value("US")));
  ExpectAgrees(index, example.schema, example.dcs, "after fixing country");
  index.Apply(RepairOperation::Update(4, *country, Value("US")));
  ExpectAgrees(index, example.schema, example.dcs, "after fixing f4");
  EXPECT_TRUE(index.IsConsistent());
  // Now dirty it again.
  index.Apply(RepairOperation::Update(3, *continent, Value("Mars")));
  ExpectAgrees(index, example.schema, example.dcs, "after new noise");
  EXPECT_FALSE(index.IsConsistent());
}

TEST(Incremental, InsertionProbesNewFact) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d0);
  EXPECT_TRUE(index.IsConsistent());
  // A fact conflicting with the Key West block on Continent.
  index.Apply(RepairOperation::Insertion(
      Fact(example.relation,
           {Value("X"), Value("t"), Value("n"), Value("Pluto"), Value("US"),
            Value("Key West")})));
  ExpectAgrees(index, example.schema, example.dcs, "after insertion");
  EXPECT_FALSE(index.IsConsistent());
}

TEST(Incremental, SelfInconsistencyTransitions) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"High", "Low"});
  const auto unary = ParseDc(*schema, r, "!(t.High < t.Low)");
  const auto fd = ParseDc(*schema, r, "!(t.High = t'.High & t.Low != t'.Low)");
  const std::vector<DenialConstraint> dcs = {*unary, *fd};
  Database db(schema);
  const FactId a = db.Insert(Fact(r, {Value(5), Value(1)}));
  db.Insert(Fact(r, {Value(5), Value(2)}));  // FD-conflicts with a
  IncrementalViolationIndex index(schema, dcs, db);
  ExpectAgrees(index, schema, dcs, "initial");

  // Make fact a self-inconsistent: its FD pair stops being minimal.
  index.Apply(RepairOperation::Update(a, 0, Value(0)));  // High=0 < Low=1
  ExpectAgrees(index, schema, dcs, "after becoming self-inconsistent");
  EXPECT_EQ(index.NumMinimalSubsets(), 1u);

  // And back: singleton goes, the FD pair returns.
  index.Apply(RepairOperation::Update(a, 0, Value(5)));
  ExpectAgrees(index, schema, dcs, "after recovering");
  EXPECT_EQ(index.NumMinimalSubsets(), 1u);  // the FD pair again
}

class IncrementalSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSweep, RandomOperationSequencesAgreeWithScratch) {
  const DatasetId id =
      AllDatasets()[static_cast<size_t>(GetParam()) % AllDatasets().size()];
  const Dataset dataset = MakeDataset(id, 60, GetParam());
  IncrementalViolationIndex index(dataset.schema, dataset.constraints,
                                  dataset.data);
  const RNoiseGenerator noise(dataset.data, dataset.constraints, 0.0);
  Rng rng(GetParam() * 7 + 1);

  // Mixed workload: noise updates (applied through the index), deletions,
  // and insertions of copies of existing facts.
  for (int step = 0; step < 12; ++step) {
    const int kind = static_cast<int>(rng.UniformIndex(4));
    const std::vector<FactId> ids = index.db().ids();
    if (ids.empty()) break;
    if (kind == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else if (kind == 1) {
      index.Apply(RepairOperation::Insertion(
          index.db().fact(ids[rng.UniformIndex(ids.size())])));
    } else {
      // A noise step on a scratch copy tells us which update to apply.
      Database scratch = index.db();
      Rng probe = rng.Fork();
      noise.Step(scratch, probe);
      for (const FactId fid : scratch.ids()) {
        const Fact& before = index.db().fact(fid);
        const Fact& after = scratch.fact(fid);
        for (AttrIndex attr = 0; attr < before.arity(); ++attr) {
          if (before.value(attr) != after.value(attr)) {
            index.Apply(
                RepairOperation::Update(fid, attr, after.value(attr)));
          }
        }
      }
    }
    ExpectAgrees(index, dataset.schema, dataset.constraints,
                 std::string(DatasetName(id)) + " step " +
                     std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, IncrementalSweep,
                         ::testing::Range(0, 24));

// ---- k-ary incremental maintenance (anchored re-enumeration) ----

// The 3-ary chain !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C).
DenialConstraint ChainDc3() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  return DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds));
}

// A 4-ary "at most 3 duplicates of (A)" style constraint with order tie
// breaks, to reach supports of size up to 4 and repeated-fact assignments:
// !(t0.A = t1.A & t1.A = t2.A & t2.A = t3.A & t0.B < t3.B).
DenialConstraint WideDc4() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 0}, CompareOp::kEq, Operand{2, 0});
  preds.emplace_back(Operand{2, 0}, CompareOp::kEq, Operand{3, 0});
  preds.emplace_back(Operand{0, 1}, CompareOp::kLt, Operand{3, 1});
  return DenialConstraint(std::vector<RelationId>(4, 0), std::move(preds));
}

// Drives a k-ary (optionally mixed with binary and unary) index through a
// random operation sequence, re-checking bit-agreement with fresh
// detection after every op — the enforcement arm of the anchored
// re-enumeration path (insert/update probe through the changed fact,
// minimality filtering against the live store, per-assignment violation
// multiplicities).
void RunKArySweep(const std::vector<DenialConstraint>& dcs, size_t num_facts,
                  int64_t domain, uint64_t seed, const std::string& where) {
  const auto schema = MakeAbcSchema();
  const Database start = MakeRandomDatabase(schema, 0, num_facts, domain,
                                            seed);
  IncrementalViolationIndex index(schema, dcs, start);
  ExpectAgrees(index, schema, dcs, where + " initial");
  Rng rng(seed * 13 + 5);
  for (int step = 0; step < 14; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    const size_t kind = ids.empty() ? 1 : rng.UniformIndex(4);
    if (kind == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else if (kind == 1) {
      std::vector<Value> values;
      for (int a = 0; a < 3; ++a) {
        values.emplace_back(
            static_cast<int64_t>(rng.UniformInt(0, domain - 1)));
      }
      index.Apply(RepairOperation::Insertion(Fact(0, std::move(values))));
    } else if (kind == 2) {  // duplicate: repeated-fact assignments
      index.Apply(RepairOperation::Insertion(
          index.db().fact(ids[rng.UniformIndex(ids.size())])));
    } else {
      index.Apply(RepairOperation::Update(
          ids[rng.UniformIndex(ids.size())],
          static_cast<AttrIndex>(rng.UniformIndex(3)),
          Value(static_cast<int64_t>(rng.UniformInt(0, domain - 1)))));
    }
    ExpectAgrees(index, schema, dcs, where + " step " + std::to_string(step));
  }
}

class KAryIncrementalSweep : public ::testing::TestWithParam<int> {};

TEST_P(KAryIncrementalSweep, PureChainDc) {
  RunKArySweep({ChainDc3()}, 24, 3, GetParam() * 3 + 1,
               "chain seed=" + std::to_string(GetParam()));
}

TEST_P(KAryIncrementalSweep, MixedBinaryAndKAry) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(ChainDc3());
  RunKArySweep(dcs, 20, 3, GetParam() * 7 + 2,
               "mixed seed=" + std::to_string(GetParam()));
}

TEST_P(KAryIncrementalSweep, MixedUnaryAndWide4Ary) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));  // self-inconsistency
  dcs.push_back(WideDc4());
  RunKArySweep(dcs, 14, 3, GetParam() * 11 + 3,
               "wide seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KAryIncrementalSweep, ::testing::Range(0, 6));

// Self-inconsistency transitions through a k-ary constraint: the
// singleton's multiplicity counts the pass-1 Add plus the all-variables-
// on-one-fact k-ary derivation, and suppressed larger witnesses come back
// when the fact recovers.
TEST(KAryIncremental, SelfInconsistencyTransitions) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  dcs.push_back(ChainDc3());
  Database db(schema);
  const FactId a = db.Insert(Fact(0, {Value(5), Value(1), Value(0)}));
  db.Insert(Fact(0, {Value(5), Value(1), Value(2)}));
  db.Insert(Fact(0, {Value(7), Value(1), Value(3)}));
  IncrementalViolationIndex index(schema, dcs, db);
  ExpectAgrees(index, schema, dcs, "initial");

  // a becomes self-inconsistent (A=0 < B=1): its chain witnesses drop.
  index.Apply(RepairOperation::Update(a, 0, Value(0)));
  ExpectAgrees(index, schema, dcs, "self-inconsistent");
  // And back.
  index.Apply(RepairOperation::Update(a, 0, Value(5)));
  ExpectAgrees(index, schema, dcs, "recovered");
}

// ---- slot compaction ----

// Sustained churn leaves dead slots behind (removal only marks);
// CompactSlots reclaims them without changing any observable state, and
// the threshold form bounds stored slots across a long trajectory.
TEST(SlotCompaction, ChurnStaysBoundedUnderPeriodicCompaction) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  const Database start = MakeRandomDatabase(schema, 0, 30, 3, 77);
  IncrementalViolationIndex index(schema, dcs, start);
  Rng rng(78);

  size_t max_stored_with_compaction = 0;
  for (int step = 0; step < 300; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    if (!ids.empty() && rng.UniformIndex(2) == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else {
      index.Apply(RepairOperation::Insertion(Fact(
          0, {Value(static_cast<int64_t>(rng.UniformInt(0, 2))),
              Value(static_cast<int64_t>(rng.UniformInt(0, 2))),
              Value(static_cast<int64_t>(rng.UniformInt(0, 2)))})));
    }
    // Compact whenever more than half the slots are dead — the session
    // vacuum's policy.
    index.CompactSlotsIfWasteful(0.5);
    max_stored_with_compaction =
        std::max(max_stored_with_compaction, index.NumStoredSlots());
    ASSERT_LE(index.NumStoredSlots(),
              2 * std::max<size_t>(index.NumMinimalSubsets(), 1) + 2)
        << "step " << step;
  }
  EXPECT_GT(max_stored_with_compaction, 0u);
  ExpectAgrees(index, schema, dcs, "after churn");

  // Full compaction drops every dead slot and is observably a no-op.
  index.CompactSlots();
  EXPECT_EQ(index.NumStoredSlots(), index.NumMinimalSubsets());
  ExpectAgrees(index, schema, dcs, "after full compaction");

  // And the index keeps maintaining correctly on the compacted layout.
  for (int step = 0; step < 20; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    if (ids.empty()) break;
    index.Apply(
        RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    ExpectAgrees(index, schema, dcs,
                 "post-compaction step " + std::to_string(step));
  }
}

// ---- reading the live slots: Snapshot and the conflict graph ----

// A random repairing operation valid against `db`: delete, fresh insert,
// duplicate insert (repeated-fact assignments) or single-cell update.
RepairOperation RandomOp(const Database& db, Rng& rng, int64_t domain) {
  const std::vector<FactId> ids = db.ids();
  const size_t kind = ids.empty() ? 1 : rng.UniformIndex(4);
  auto draw = [&] {
    return Value(static_cast<int64_t>(rng.UniformInt(0, domain - 1)));
  };
  if (kind == 0) {
    return RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]);
  }
  if (kind == 1) {
    return RepairOperation::Insertion(Fact(0, {draw(), draw(), draw()}));
  }
  if (kind == 2) {
    return RepairOperation::Insertion(
        db.fact(ids[rng.UniformIndex(ids.size())]));
  }
  const FactId id = ids[rng.UniformIndex(ids.size())];
  const auto attr = static_cast<AttrIndex>(rng.UniformIndex(3));
  return RepairOperation::Update(id, attr, draw());
}

// Non-unit deletion costs from a decimal palette with ties.
void AssignDecimalCosts(Database& db, uint64_t seed) {
  static constexpr double kPalette[] = {0.1, 0.3, 0.7, 1.3};
  Rng rng(seed);
  db.ForEachId([&](FactId id) {
    db.set_deletion_cost(id, kPalette[rng.UniformIndex(4)]);
  });
}

// Snapshot as it was before ViolationSet::Add took a derivation count:
// one Add per derivation, every repeat dropped as a duplicate.
ViolationSet PerDerivationSnapshot(const IncrementalViolationIndex& index) {
  ViolationSet out;
  index.ForEachLiveSubset(
      [&](const std::vector<FactId>& facts, uint32_t derivations) {
        for (uint32_t m = 0; m < derivations; ++m) out.Add(facts);
      });
  return out;
}

// Subsets with several derivations — a pair both FDs derive, k-ary
// supports reached by several assignments — snapshot with one Add each,
// carrying the count: the same subsets in the same order, the same
// violation count, as one Add per derivation.
TEST(Snapshot, DerivationCountsMatchPerDerivationAdds) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.C != t'.C)"));
  dcs.push_back(ChainDc3());
  const Database start = MakeRandomDatabase(schema, 0, 16, 3, 404);
  IncrementalViolationIndex index(schema, dcs, start);
  Rng rng(405);
  uint32_t max_derivations = 0;
  for (int step = 0; step <= 30; ++step) {
    if (step > 0) index.Apply(RandomOp(index.db(), rng, 3));
    if (step == 20) index.CompactSlots();
    index.ForEachLiveSubset([&](const std::vector<FactId>&, uint32_t d) {
      max_derivations = std::max(max_derivations, d);
    });
    const std::string where = "step " + std::to_string(step);
    const ViolationSet expected = PerDerivationSnapshot(index);
    const ViolationSet got = index.Snapshot();
    EXPECT_EQ(got.minimal_subsets(), expected.minimal_subsets()) << where;
    EXPECT_EQ(got.num_minimal_violations(), expected.num_minimal_violations())
        << where;
    EXPECT_EQ(got.truncated(), expected.truncated()) << where;
    EXPECT_EQ(got.num_minimal_violations(), index.NumMinimalViolations())
        << where;
    ExpectAgrees(index, schema, dcs, where);
  }
  EXPECT_GT(max_derivations, 1u) << "no subset with several derivations";
}

// A context over the index reads its counts from the index and, on
// request, hands out the lazy Snapshot(): the same subsets in the same
// order, the same counts, as a context over that snapshot.
TEST(IndexBackedContext, ViolationsIsTheSnapshot) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B & t.B <= t.C)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.C != t'.C)"));
  dcs.push_back(ChainDc3());
  const ViolationDetector detector(schema, dcs);
  Database start = MakeRandomDatabase(schema, 0, 16, 3, 406);
  AssignDecimalCosts(start, 407);
  IncrementalViolationIndex index(schema, dcs, start);
  Rng rng(408);
  for (int step = 0; step <= 20; ++step) {
    if (step > 0) index.Apply(RandomOp(index.db(), rng, 3));
    const std::string where = "step " + std::to_string(step);
    const ViolationSet snapshot = index.Snapshot();
    MeasureContext from_index(detector, index);
    MeasureContext from_snapshot(detector, index.db(), snapshot);
    EXPECT_EQ(from_index.num_minimal_subsets(),
              from_snapshot.num_minimal_subsets())
        << where;
    EXPECT_EQ(from_index.num_minimal_violations(),
              from_snapshot.num_minimal_violations())
        << where;
    EXPECT_EQ(from_index.empty(), from_snapshot.empty()) << where;
    EXPECT_EQ(from_index.truncated(), from_snapshot.truncated()) << where;
    EXPECT_EQ(from_index.num_problematic_facts(),
              from_snapshot.num_problematic_facts())
        << where;
    const ViolationSet& lazy = from_index.violations();
    EXPECT_EQ(lazy.minimal_subsets(), snapshot.minimal_subsets()) << where;
    EXPECT_EQ(lazy.num_minimal_violations(), snapshot.num_minimal_violations())
        << where;
    EXPECT_EQ(lazy.truncated(), snapshot.truncated()) << where;
    EXPECT_EQ(&from_index.violations(), &lazy) << where;
  }
}

void ExpectSameGraph(const ConflictGraph& expected,
                     const ConflictGraph& actual, const std::string& where) {
  ASSERT_EQ(expected.num_vertices(), actual.num_vertices()) << where;
  for (uint32_t v = 0; v < expected.num_vertices(); ++v) {
    EXPECT_EQ(expected.fact_of(v), actual.fact_of(v)) << where;
  }
  EXPECT_EQ(expected.edges(), actual.edges()) << where;
  EXPECT_EQ(expected.hyperedges(), actual.hyperedges()) << where;
  EXPECT_EQ(expected.self_inconsistent(), actual.self_inconsistent())
      << where;
  EXPECT_EQ(expected.num_self_inconsistent(), actual.num_self_inconsistent())
      << where;
  EXPECT_EQ(expected.weights(), actual.weights()) << where;
}

// What the graphs compared so far held, so the fuzz can show it reached
// every kind of witness.
struct GraphTally {
  size_t edges = 0;
  size_t hyperedges = 0;
  size_t self_inconsistent = 0;
};

// The index-built graph equals the graph built from its snapshot.
void ExpectGraphFromLiveSlots(const IncrementalViolationIndex& index,
                              const std::string& where, GraphTally* tally) {
  const ConflictGraph expected =
      ConflictGraph::Build(index.db(), index.Snapshot());
  ExpectSameGraph(expected, index.BuildConflictGraph(), where);
  tally->edges += expected.edges().size();
  tally->hyperedges += expected.hyperedges().size();
  tally->self_inconsistent += expected.num_self_inconsistent();
}

class OneGraphTwoSources : public ::testing::TestWithParam<int> {};

// Random binary and k-ary trajectories with self-inconsistent facts and
// non-unit deletion costs: at every sample point the conflict graph fed
// straight from the live slots equals ConflictGraph::Build over Snapshot(),
// field by field — with dead slots pending, after CompactSlots(), and
// after what a session vacuum does to an index (re-intern onto a fresh
// pool, then compact).
TEST_P(OneGraphTwoSources, IndexGraphEqualsSnapshotGraph) {
  const int seed = GetParam();
  const auto schema = MakeAbcSchema();
  const DenialConstraint unary =
      *ParseDc(*schema, 0, "!(t.A < t.B & t.B <= t.C)");
  std::vector<DenialConstraint> binary;
  binary.push_back(unary);
  binary.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  binary.push_back(*ParseDc(*schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  // Three facts agreeing on A with pairwise distinct B: every repeated-fact
  // assignment falsifies a !=, so the witnesses are genuine triples.
  std::vector<Predicate> triangle;
  triangle.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  triangle.emplace_back(Operand{1, 0}, CompareOp::kEq, Operand{2, 0});
  triangle.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
  triangle.emplace_back(Operand{1, 1}, CompareOp::kNe, Operand{2, 1});
  triangle.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{2, 1});
  std::vector<DenialConstraint> kary;
  kary.push_back(unary);
  kary.push_back(*ParseDc(*schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  kary.emplace_back(std::vector<RelationId>(3, 0), std::move(triangle));
  for (const bool is_kary : {false, true}) {
    const std::vector<DenialConstraint>& dcs = is_kary ? kary : binary;
    GraphTally tally;
    const int64_t domain = is_kary ? 3 : 4;
    Database start =
        MakeRandomDatabase(schema, 0, is_kary ? 20 : 40, domain, 900 + seed);
    AssignDecimalCosts(start, 901 + seed);
    IncrementalViolationIndex index(schema, dcs, start);
    Rng rng(902 + seed);
    const std::string name =
        std::string(is_kary ? "k-ary" : "binary") + " seed=" +
        std::to_string(seed);
    ExpectGraphFromLiveSlots(index, name + " initial", &tally);
    for (int step = 1; step <= 40; ++step) {
      index.Apply(RandomOp(index.db(), rng, domain));
      const std::string where = name + " step " + std::to_string(step);
      if (step % 3 == 0) ExpectGraphFromLiveSlots(index, where, &tally);
      if (step % 10 == 0) {
        index.CompactSlots();
        ExpectGraphFromLiveSlots(index, where + " compacted", &tally);
      }
      if (step % 16 == 0) {
        index.mutable_db().ReinternInto(std::make_shared<ValuePool>());
        index.CompactSlotsIfWasteful(0.0);
        ExpectGraphFromLiveSlots(index, where + " re-interned", &tally);
      }
    }
    EXPECT_GT(tally.edges, 0u) << name;
    EXPECT_GT(tally.self_inconsistent, 0u) << name;
    if (is_kary) EXPECT_GT(tally.hyperedges, 0u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneGraphTwoSources, ::testing::Range(0, 8));

// Through a session with forced vacuums: the report Evaluate builds from
// the index equals the suite evaluated over a context holding the handle's
// Violations() snapshot, value for value.
TEST(OneGraphTwoSourcesSession, ReportEqualsSnapshotContextAcrossVacuums) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(ChainDc3());
  Database start = MakeRandomDatabase(schema, 0, 18, 4, 911);
  AssignDecimalCosts(start, 912);
  MeasureSession session(schema, dcs);
  const DbHandle handle = session.Register(start);
  Rng rng(913);
  for (int step = 1; step <= 30; ++step) {
    session.Apply(handle,
                  session.WithDatabase(handle, [&](const Database& db) {
                    return RandomOp(db, rng, 4);
                  }));
    if (step % 5 == 0) session.Vacuum(0.0);
    const BatchReport report = session.Evaluate(handle);
    const ViolationSet snapshot = session.Violations(handle);
    const std::vector<MeasureResult> expected =
        session.WithDatabase(handle, [&](const Database& db) {
          MeasureContext context(session.detector(), db, snapshot);
          return session.Evaluate(context);
        });
    const std::string where = "step " + std::to_string(step);
    EXPECT_EQ(report.num_minimal_subsets, snapshot.num_minimal_subsets())
        << where;
    ASSERT_EQ(report.measures.size(), expected.size()) << where;
    for (size_t m = 0; m < expected.size(); ++m) {
      EXPECT_EQ(report.measures[m].value, expected[m].value)
          << where << " " << expected[m].name;
    }
  }
  EXPECT_EQ(session.num_full_detections(), 0u);
}

}  // namespace
}  // namespace dbim
