// Reference fuzz for the binary-constraint probe: the detector narrows each
// probe row's candidate block through an order-rank or `!=`-class index and
// filters with rank compares before BodyHolds, but its output must be the
// plain nested loop's, order included. A brute-force enumerator here
// reproduces the canonical order — self-inconsistent facts first (id
// order), then constraints ascending, probe row ascending, inner row
// ascending, self-inconsistent facts and reflexive pairs skipped, pairs
// deduplicated per constraint on first occurrence — and every thread count
// must match it exactly: subsets (order included), minimal-violation count,
// truncation and per-constraint stats. The value palettes cover the cases
// where a rank index could go wrong: ties, Value(2) next to Value(2.0),
// nulls, strings mixed with numbers, NaN, and ints beyond 2^53 next to
// doubles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "constraints/dc.h"
#include "constraints/predicate.h"
#include "relational/database.h"
#include "violations/detector.h"
#include "violations/eval_kernel.h"

namespace dbim {
namespace {

const size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kArity = 4;

// Column value palettes, one per edge case.
std::vector<std::vector<Value>> Palettes() {
  const int64_t wide = int64_t{1} << 53;
  return {
      // ties
      {Value(0), Value(1), Value(2), Value(3)},
      // Value(2) next to Value(2.0): equal, one class
      {Value(1), Value(2), Value(2.0), Value(2.5), Value(3.0)},
      // nulls
      {Value(), Value(1), Value(5), Value(-3)},
      // strings and numbers in one column
      {Value("a"), Value("b"), Value(1), Value(2.0), Value()},
      // NaN
      {Value(std::nan("")), Value(1.0), Value(2.0), Value(0.5)},
      // ints beyond 2^53 next to doubles
      {Value(wide), Value(wide + 1), Value(wide - 1),
       Value(static_cast<double>(wide)), Value(2 * wide - 1),
       Value(2 * wide + 1), Value(static_cast<double>(2 * wide)), Value(1.5)},
      // wide ints alone (still totally ordered)
      {Value(wide + 1), Value(wide + 3), Value(-wide - 5), Value(7)},
      // a wide spread: long sorted ranges
      {Value(0), Value(1), Value(2), Value(3), Value(4), Value(5), Value(6),
       Value(7), Value(8), Value(9), Value(10), Value(11)},
  };
}

struct Instance {
  std::shared_ptr<Schema> schema;
  RelationId r = 0;
  RelationId s = 0;
  Database db;
  std::vector<std::vector<Value>> column_palettes;  // per attribute

  explicit Instance(std::shared_ptr<Schema> sc)
      : schema(sc), r(0), s(1), db(sc) {}
};

std::shared_ptr<Schema> MakeTwoRelationSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"A", "B", "C", "D"});
  schema->AddRelation("S", {"A", "B", "C", "D"});
  return schema;
}

// Facts over R and S drawn column-wise from random palettes; some facts are
// deleted so block row order differs from id order.
Instance MakeInstance(uint64_t seed, size_t rows_r, size_t rows_s) {
  Instance inst(MakeTwoRelationSchema());
  Rng rng(seed);
  const auto palettes = Palettes();
  for (size_t a = 0; a < kArity; ++a) {
    if (rng.UniformIndex(4) == 0) {
      // Everything at once.
      std::vector<Value> all;
      for (const auto& p : palettes) all.insert(all.end(), p.begin(), p.end());
      inst.column_palettes.push_back(std::move(all));
    } else {
      inst.column_palettes.push_back(
          palettes[rng.UniformIndex(palettes.size())]);
    }
  }
  auto draw_fact = [&](RelationId rel) {
    std::vector<Value> values;
    for (size_t a = 0; a < kArity; ++a) {
      const auto& p = inst.column_palettes[a];
      values.push_back(p[rng.UniformIndex(p.size())]);
    }
    return Fact(rel, std::move(values));
  };
  std::vector<FactId> ids;
  for (size_t i = 0; i < rows_r; ++i) {
    ids.push_back(inst.db.Insert(draw_fact(inst.r)));
  }
  for (size_t i = 0; i < rows_s; ++i) {
    ids.push_back(inst.db.Insert(draw_fact(inst.s)));
  }
  for (size_t k = 0; k < ids.size() / 10; ++k) {
    const FactId id = ids[rng.UniformIndex(ids.size())];
    if (inst.db.Contains(id)) inst.db.Delete(id);
  }
  return inst;
}

CompareOp RandomOp(Rng& rng) {
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  return kOps[rng.UniformIndex(6)];
}

AttrIndex RandomAttr(Rng& rng) {
  return static_cast<AttrIndex>(rng.UniformIndex(kArity));
}

// A random binary body: mostly cross-variable predicates (either variable
// on the left), plus same-variable and constant predicates.
DenialConstraint RandomBinaryDc(Rng& rng, const Instance& inst, RelationId r0,
                                RelationId r1) {
  std::vector<Predicate> preds;
  const size_t n = 1 + rng.UniformIndex(3);
  for (size_t k = 0; k < n; ++k) {
    const size_t kind = rng.UniformIndex(10);
    const uint32_t var = static_cast<uint32_t>(rng.UniformIndex(2));
    if (kind < 7) {
      preds.emplace_back(Operand{var, RandomAttr(rng)}, RandomOp(rng),
                         Operand{1 - var, RandomAttr(rng)});
    } else if (kind < 9) {
      preds.emplace_back(Operand{var, RandomAttr(rng)}, RandomOp(rng),
                         Operand{var, RandomAttr(rng)});
    } else {
      const AttrIndex a = RandomAttr(rng);
      const auto& p = inst.column_palettes[a];
      preds.emplace_back(Operand{var, a}, RandomOp(rng),
                         p[rng.UniformIndex(p.size())]);
    }
  }
  return DenialConstraint({r0, r1}, std::move(preds));
}

Predicate Cross(uint32_t lhs_var, AttrIndex a, CompareOp op, AttrIndex b) {
  return Predicate(Operand{lhs_var, a}, op, Operand{1 - lhs_var, b});
}

// The shapes the narrowing index specializes on, over R (and R x S).
std::vector<DenialConstraint> NamedDcs(const Instance& inst) {
  const RelationId r = inst.r;
  const RelationId s = inst.s;
  std::vector<DenialConstraint> dcs;
  // FD: key + `!=` class partition inside each bucket.
  dcs.push_back(DenialConstraint({r, r}, {Cross(0, 0, CompareOp::kEq, 0),
                                          Cross(0, 1, CompareOp::kNe, 1)}));
  // Tax-style: key + two order predicates.
  dcs.push_back(DenialConstraint({r, r}, {Cross(0, 0, CompareOp::kEq, 0),
                                          Cross(0, 1, CompareOp::kGt, 1),
                                          Cross(0, 2, CompareOp::kLt, 2)}));
  // Voter-style pure order, t' on the left-hand side, <= and >=.
  dcs.push_back(DenialConstraint({r, r}, {Cross(1, 1, CompareOp::kLe, 2),
                                          Cross(0, 3, CompareOp::kGt, 3)}));
  dcs.push_back(DenialConstraint({r, r}, {Cross(0, 2, CompareOp::kGe, 1),
                                          Cross(0, 3, CompareOp::kLt, 3)}));
  dcs.push_back(DenialConstraint({r, r}, {Cross(0, 1, CompareOp::kLt, 1),
                                          Cross(1, 2, CompareOp::kLt, 2)}));
  // `!=`-only body.
  dcs.push_back(DenialConstraint({r, r}, {Cross(0, 1, CompareOp::kNe, 1),
                                          Cross(1, 2, CompareOp::kNe, 3)}));
  // Cross-relation, keyed and unkeyed.
  dcs.push_back(DenialConstraint({r, s}, {Cross(0, 0, CompareOp::kEq, 1),
                                          Cross(1, 2, CompareOp::kGe, 2)}));
  dcs.push_back(DenialConstraint({s, r}, {Cross(0, 3, CompareOp::kLt, 1),
                                          Cross(0, 2, CompareOp::kNe, 2)}));
  // A unary constraint: self-inconsistent facts, skipped by every pair.
  dcs.push_back(DenialConstraint(
      {r}, {Predicate(Operand{0, 2}, CompareOp::kGt, Operand{0, 3})}));
  return dcs;
}

struct Reference {
  ViolationSet set;
  std::vector<DetectorConstraintStats> stats;
};

// Brute force: every pair of every binary constraint, in canonical order,
// evaluated by the kernel's DcEval::BodyHolds (the detector's predicate
// semantics) with no index, bucket or rank anywhere.
Reference BruteForce(const Database& db,
                     const std::vector<DenialConstraint>& dcs,
                     size_t max_subsets) {
  Reference ref;
  ref.stats.resize(dcs.size());
  auto capped = [&] {
    if (max_subsets > 0 && ref.set.num_minimal_subsets() >= max_subsets) {
      ref.set.set_truncated(true);
      return true;
    }
    return false;
  };
  std::set<FactId> self_inconsistent;
  for (const DenialConstraint& dc : dcs) {
    const RelationId rel = dc.var_relation(0);
    bool single = true;
    for (const RelationId v : dc.var_relations()) single &= v == rel;
    if (!single) continue;
    const DcEval eval(dc, db.pool());
    const Database::RelationBlock& block = db.relation_block(rel);
    for (uint32_t i = 0; i < block.num_rows(); ++i) {
      std::vector<RowRef> assignment(dc.num_vars(), RowRef{&block, i});
      if (eval.BodyHolds(assignment.data())) {
        self_inconsistent.insert(block.row_ids[i]);
      }
    }
  }
  for (const FactId id : self_inconsistent) {
    ref.set.Add({id});
    if (capped()) return ref;
  }
  for (size_t c = 0; c < dcs.size(); ++c) {
    const DenialConstraint& dc = dcs[c];
    if (dc.num_vars() != 2) continue;
    const DcEval eval(dc, db.pool());
    const Database::RelationBlock& r0 = db.relation_block(dc.var_relation(0));
    const Database::RelationBlock& r1 = db.relation_block(dc.var_relation(1));
    const bool same = dc.var_relation(0) == dc.var_relation(1);
    std::set<std::pair<FactId, FactId>> seen;
    DetectorConstraintStats& st = ref.stats[c];
    bool stop = false;
    for (uint32_t i = 0; i < r0.num_rows() && !stop; ++i) {
      for (uint32_t j = 0; j < r1.num_rows() && !stop; ++j) {
        const FactId a = r0.row_ids[i];
        const FactId b = r1.row_ids[j];
        if (same && a == b) continue;
        if (self_inconsistent.count(a) || self_inconsistent.count(b)) continue;
        const RowRef assignment[2] = {RowRef{&r0, i}, RowRef{&r1, j}};
        if (!eval.BodyHolds(assignment)) continue;
        ++st.num_probes;
        const auto key = std::make_pair(std::min(a, b), std::max(a, b));
        if (!seen.insert(key).second) continue;
        ++st.num_fires;
        ref.set.Add({key.first, key.second});
        stop = capped();
      }
    }
    // A fresh detector decays a zero score once, then adds the fires.
    st.activity = static_cast<double>(st.num_fires);
    if (stop) break;
  }
  return ref;
}

void ExpectMatchesReference(const Instance& inst,
                            const std::vector<DenialConstraint>& dcs,
                            size_t max_subsets, const std::string& where) {
  const Reference ref = BruteForce(inst.db, dcs, max_subsets);
  for (const size_t threads : kThreadCounts) {
    DetectorOptions options;
    options.num_threads = threads;
    options.max_subsets = max_subsets;
    const ViolationDetector detector(inst.schema, dcs, options);
    const ViolationSet got = detector.FindViolations(inst.db);
    const std::string at = where + " threads=" + std::to_string(threads);
    ASSERT_EQ(ref.set.minimal_subsets(), got.minimal_subsets()) << at;
    EXPECT_EQ(ref.set.num_minimal_violations(), got.num_minimal_violations())
        << at;
    EXPECT_EQ(ref.set.truncated(), got.truncated()) << at;
    for (size_t c = 0; c < dcs.size(); ++c) {
      const DetectorConstraintStats st = detector.constraint_stats(c);
      EXPECT_EQ(ref.stats[c].num_probes, st.num_probes) << at << " dc " << c;
      EXPECT_EQ(ref.stats[c].num_fires, st.num_fires) << at << " dc " << c;
      EXPECT_EQ(ref.stats[c].activity, st.activity) << at << " dc " << c;
    }
  }
}

// Random bodies over random palettes, one relation and two.
TEST(BinaryProbe, RandomBodiesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance inst = MakeInstance(seed, 150 + seed * 3, 90);
    Rng rng(seed * 7919);
    std::vector<DenialConstraint> dcs;
    for (int k = 0; k < 6; ++k) {
      const RelationId r1 = rng.UniformIndex(3) == 0 ? inst.s : inst.r;
      dcs.push_back(RandomBinaryDc(rng, inst, inst.r, r1));
    }
    ExpectMatchesReference(inst, dcs, 0, "random seed=" + std::to_string(seed));
  }
}

// The shapes the narrowing specializes on: keyed `!=` partitions, keyed
// and unkeyed order ranges, `!=`-only bodies, cross-relation probes.
TEST(BinaryProbe, NamedShapesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance inst = MakeInstance(seed, 300, 140);
    const std::vector<DenialConstraint> dcs = NamedDcs(inst);
    ExpectMatchesReference(inst, dcs, 0, "named seed=" + std::to_string(seed));
    if (seed > 3) continue;
    // Each shape next to the unary constraint, so self-inconsistent rows
    // are skipped inside every narrowing.
    for (size_t c = 0; c + 1 < dcs.size(); ++c) {
      ExpectMatchesReference(inst, {dcs[c], dcs.back()}, 0,
                             "named seed=" + std::to_string(seed) +
                                 " dc=" + std::to_string(c));
    }
  }
}

// max_subsets truncation lands on the same subset as the brute force.
TEST(BinaryProbe, MaxSubsetsTruncationMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = MakeInstance(seed, 260, 120);
    const std::vector<DenialConstraint> dcs = NamedDcs(inst);
    const size_t total = BruteForce(inst.db, dcs, 0).set.num_minimal_subsets();
    for (const size_t cap : {size_t{1}, size_t{7}, total / 2, total}) {
      if (cap == 0) continue;
      ExpectMatchesReference(inst, dcs, cap,
                             "cap=" + std::to_string(cap) +
                                 " seed=" + std::to_string(seed));
    }
  }
}

// Without a strict weak order on a compared column the probe must fall back
// to the unnarrowed block; with one it must narrow. Either way the output
// is the brute force's. Each instance holds one hazard in every column; the
// constraints pair R with S, so no fact is self-inconsistent and every
// pair reaches the probe.
TEST(BinaryProbe, RankHazardsFallBackExactly) {
  const int64_t wide = int64_t{1} << 53;
  const std::vector<std::vector<Value>> hazards = {
      {Value(std::nan("")), Value(1.0), Value(-2.0), Value(std::nan(""))},
      // 2^54 - 1 and 2^54 + 1 both equal 2^54.0 but differ from each
      // other: int/double equality is not transitive here.
      {Value(2 * wide - 1), Value(2 * wide + 1),
       Value(static_cast<double>(2 * wide)), Value(wide + 1), Value(1.5)},
      {Value(2), Value(2.0), Value(1), Value(3.0)},
      {Value(), Value("x"), Value(4), Value(4.0)},
  };
  for (size_t h = 0; h < hazards.size(); ++h) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Instance inst(MakeTwoRelationSchema());
      Rng rng(seed + 100 * h);
      for (int i = 0; i < 300; ++i) {
        std::vector<Value> values;
        for (size_t a = 0; a < kArity; ++a) {
          values.push_back(hazards[h][rng.UniformIndex(hazards[h].size())]);
        }
        inst.db.Insert(Fact(i % 2 == 0 ? inst.r : inst.s, std::move(values)));
      }
      inst.column_palettes.assign(kArity, hazards[h]);
      const RelationId r = inst.r;
      const RelationId s = inst.s;
      // `>=` and `<=` hold on NaN (they are !(b < a)), so a rank that
      // misplaces a NaN drops true pairs.
      const std::vector<DenialConstraint> dcs = {
          DenialConstraint({r, s}, {Cross(0, 0, CompareOp::kLt, 1),
                                    Cross(1, 2, CompareOp::kGe, 3)}),
          DenialConstraint({r, s}, {Cross(0, 0, CompareOp::kEq, 0),
                                    Cross(0, 1, CompareOp::kLe, 1)}),
          DenialConstraint({s, r}, {Cross(0, 2, CompareOp::kNe, 2),
                                    Cross(0, 3, CompareOp::kGt, 3)}),
          DenialConstraint({r, s}, {Cross(0, 0, CompareOp::kGe, 1)}),
          DenialConstraint({s, r}, {Cross(1, 2, CompareOp::kLe, 3),
                                    Cross(0, 1, CompareOp::kGe, 0)}),
      };
      ExpectMatchesReference(inst, dcs, 0,
                             "hazard=" + std::to_string(h) +
                                 " seed=" + std::to_string(seed));
    }
  }
}

// A pre-expired deadline on a large violation-free pure-order instance:
// the narrowed probe skips almost every pair index, yet it must still stop
// at the first poll point, empty and truncated, at every thread count. A
// generous deadline runs to completion, equal to the brute force. With
// violations placed only past the first poll point (the last rows), a probe
// that stopped polling in narrowed rows would report them.
TEST(BinaryProbe, PreExpiredDeadlineOnPureOrderInstance) {
  for (const bool late_violations : {false, true}) {
    Instance inst(MakeTwoRelationSchema());
    for (int64_t i = 0; i < 3000; ++i) {
      const int64_t b = late_violations && i >= 2990 ? -i : 2 * i;
      inst.db.Insert(Fact(inst.r, {Value(i), Value(b), Value(i % 7),
                                   Value(static_cast<double>(i) / 2)}));
    }
    const std::vector<DenialConstraint> dcs = {DenialConstraint(
        {inst.r, inst.r},
        {Cross(0, 0, CompareOp::kLt, 0), Cross(0, 1, CompareOp::kGt, 1)})};
    const std::string where =
        late_violations ? "late violations" : "violation-free";
    for (const size_t threads : kThreadCounts) {
      DetectorOptions expired;
      expired.num_threads = threads;
      expired.deadline_seconds = 1e-9;
      const ViolationSet tiny =
          ViolationDetector(inst.schema, dcs, expired).FindViolations(inst.db);
      EXPECT_TRUE(tiny.truncated()) << where << " threads=" << threads;
      EXPECT_TRUE(tiny.empty()) << where << " threads=" << threads;
    }
    ExpectMatchesReference(inst, dcs, 0, where);

    // Against an empty S there is no pair index, hence no poll point: the
    // probe finishes untruncated, as the nested loop always did.
    const std::vector<DenialConstraint> empty_inner = {DenialConstraint(
        {inst.r, inst.s},
        {Cross(0, 0, CompareOp::kLt, 0), Cross(0, 1, CompareOp::kGt, 1)})};
    for (const size_t threads : kThreadCounts) {
      DetectorOptions expired;
      expired.num_threads = threads;
      expired.deadline_seconds = 1e-9;
      const ViolationSet none = ViolationDetector(inst.schema, empty_inner,
                                                  expired)
                                    .FindViolations(inst.db);
      EXPECT_FALSE(none.truncated()) << where << " threads=" << threads;
      EXPECT_TRUE(none.empty()) << where << " threads=" << threads;
    }
  }
}

// Blocking off is the plain nested loop over every pair: no bucket, no
// narrowing, no rank filter — and still the brute force's output.
TEST(BinaryProbe, NestedLoopBaselineMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance inst = MakeInstance(seed, 200, 100);
    const std::vector<DenialConstraint> dcs = NamedDcs(inst);
    const Reference ref = BruteForce(inst.db, dcs, 0);
    for (const size_t threads : kThreadCounts) {
      DetectorOptions options;
      options.num_threads = threads;
      options.use_blocking = false;
      const ViolationSet got =
          ViolationDetector(inst.schema, dcs, options).FindViolations(inst.db);
      EXPECT_EQ(ref.set.minimal_subsets(), got.minimal_subsets())
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(ref.set.num_minimal_violations(), got.num_minimal_violations())
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dbim
