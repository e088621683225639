#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "graph/fractional_vc.h"
#include "lp/covering.h"
#include "measures/basic_measures.h"
#include "measures/mc_measures.h"
#include "measures/registry.h"
#include "measures/repair_measures.h"
#include "measures/shapley.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using testing::MakeRunningExample;
using testing::RunningExample;

class RunningExampleMeasures : public ::testing::Test {
 protected:
  RunningExampleMeasures()
      : example_(MakeRunningExample()),
        detector_(example_.schema, example_.dcs) {}

  double Eval(const InconsistencyMeasure& m, const Database& db) {
    return m.EvaluateFresh(detector_, db);
  }

  RunningExample example_;
  ViolationDetector detector_;
};

// ---- Table 1 of the paper: every measure on D0, D1, D2. ----

TEST_F(RunningExampleMeasures, DrasticMatchesTable1) {
  DrasticMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 1.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 1.0);
}

TEST_F(RunningExampleMeasures, MiCountMatchesTable1) {
  MiCountMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 7.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 5.0);
}

TEST_F(RunningExampleMeasures, ProblematicMatchesTable1) {
  ProblematicFactsMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 5.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 4.0);
}

TEST_F(RunningExampleMeasures, McMatchesTable1) {
  MaxConsistentSubsetsMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, McPrimeCoincidesWithMcForFds) {
  // FDs admit no self-inconsistencies, so I'_MC == I_MC (Example 5).
  McWithSelfInconsistenciesMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, MinRepairMatchesTable1) {
  MinRepairMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, LinRepairMatchesTable1) {
  LinRepairMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 2.5);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, LinRepairLowerBoundsMinRepair) {
  LinRepairMeasure lin;
  MinRepairMeasure exact;
  for (const Database* db : {&example_.d0, &example_.d1, &example_.d2}) {
    const double lin_value = Eval(lin, *db);
    const double exact_value = Eval(exact, *db);
    EXPECT_LE(lin_value, exact_value + 1e-9);
    // Integrality gap for FDs is at most 2 (witnesses have size two).
    EXPECT_GE(2.0 * lin_value + 1e-9, exact_value);
  }
}

TEST_F(RunningExampleMeasures, OptimalRepairIsConsistent) {
  MinRepairMeasure m;
  MeasureContext context(detector_, example_.d1);
  const std::vector<FactId> repair = m.OptimalRepair(context);
  EXPECT_EQ(repair.size(), 3u);
  Database reduced = example_.d1;
  for (const FactId id : repair) reduced.Delete(id);
  EXPECT_TRUE(detector_.Satisfies(reduced));
}

TEST_F(RunningExampleMeasures, FractionalSolutionIsFeasible) {
  LinRepairMeasure m;
  MeasureContext context(detector_, example_.d1);
  const auto solution = m.FractionalSolution(context);
  // Feasibility: x_a + x_b >= 1 on every conflicting pair.
  std::vector<double> x(10, 0.0);
  for (const auto& [id, value] : solution) x[id] = value;
  for (const auto& subset : context.violations().minimal_subsets()) {
    ASSERT_EQ(subset.size(), 2u);
    EXPECT_GE(x[subset[0]] + x[subset[1]], 1.0 - 1e-9);
  }
}

// ---- Registry ----

TEST(MeasureRegistry, CreatesPaperRoster) {
  const auto all = CreateMeasures();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0]->name(), "I_d");
  EXPECT_EQ(all[1]->name(), "I_MI");
  EXPECT_EQ(all[2]->name(), "I_P");
  EXPECT_EQ(all[3]->name(), "I_MC");
  EXPECT_EQ(all[4]->name(), "I'_MC");
  EXPECT_EQ(all[5]->name(), "I_R");
  EXPECT_EQ(all[6]->name(), "I_lin_R");
}

TEST(MeasureRegistry, McCanBeExcluded) {
  RegistryOptions options;
  options.include_mc = false;
  const auto subset = CreateMeasures(options);
  ASSERT_EQ(subset.size(), 5u);
  EXPECT_EQ(subset[3]->name(), "I_R");
}

TEST(MeasureRegistry, AllMeasuresZeroOnConsistent) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  for (const auto& measure : CreateMeasures()) {
    EXPECT_DOUBLE_EQ(measure->EvaluateFresh(detector, example.d0), 0.0)
        << measure->name();
  }
}

// ---- I_MC positivity counterexample (Section 4) ----

TEST(McMeasure, ViolatesPositivityForDcs) {
  // D = {R(a), R(b)}, Sigma = { not R(a) }: MC = {{R(b)}} so I_MC = 0 on an
  // inconsistent database, while I'_MC = 1.
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  Database db(schema);
  db.Insert(Fact(r, {Value("a")}));
  db.Insert(Fact(r, {Value("b")}));
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Value("a"));
  const DenialConstraint not_a({r}, std::move(preds));
  const ViolationDetector detector(schema, {not_a});

  EXPECT_FALSE(detector.Satisfies(db));
  MaxConsistentSubsetsMeasure mc;
  McWithSelfInconsistenciesMeasure mc_prime;
  EXPECT_DOUBLE_EQ(mc.EvaluateFresh(detector, db), 0.0);
  EXPECT_DOUBLE_EQ(mc_prime.EvaluateFresh(detector, db), 1.0);
}

// ---- Self-inconsistency handling in repair measures ----

TEST(RepairMeasures, SelfInconsistentFactsAreForcedDeletions) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"High", "Low"});
  Database db(schema);
  db.Insert(Fact(r, {Value(1), Value(5)}));   // violates High >= Low
  db.Insert(Fact(r, {Value(9), Value(2)}));   // fine
  db.Insert(Fact(r, {Value(0), Value(10)}));  // violates
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kLt, Operand{0, 1});
  const DenialConstraint dc({r}, std::move(preds));
  const ViolationDetector detector(schema, {dc});

  MinRepairMeasure exact;
  LinRepairMeasure lin;
  EXPECT_DOUBLE_EQ(exact.EvaluateFresh(detector, db), 2.0);
  EXPECT_DOUBLE_EQ(lin.EvaluateFresh(detector, db), 2.0);
}

TEST(RepairMeasures, HonorsDeletionCosts) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  Database weighted = example.d2;
  // Make f2 and f4 expensive; the optimum should avoid them:
  // {f3, f5} do not cover edge (f2, f4), so the cheapest cover keeps one
  // of the expensive facts. Edges: {23,24,25,34,45}.
  weighted.set_deletion_cost(2, 10.0);
  weighted.set_deletion_cost(4, 10.0);
  MinRepairMeasure exact;
  // Candidates: {2,4} = 20, {2,3,4,...}. Cover must hit 24: cost >= 10.
  // {4, 2} vs {2, 3, 5} = 10+1+1 = 12 vs {4, 2}... best is {2, 4}? No:
  // {2,4} = 20; {4,2,...}. Try {2, 3, 4, 5} subsets: cover needs 2 or 3
  // for edge 23, and 2 or 4 for 24, 2 or 5 for 25, 3 or 4 for 34, 4 or 5
  // for 45. Choosing {2, 4} costs 20; {3, 5, 2} = 12; {3, 5, 4} = 12;
  // {2, 4} dominated. Minimum is 12.
  EXPECT_DOUBLE_EQ(exact.EvaluateFresh(detector, weighted), 12.0);
}

// ---- Repair memo: one LP per context, shared by I_R and I_lin_R ----

// A random conflict structure over `n` facts: a few components with random
// edges, some self-inconsistent facts, and (with `hyper`) triples that
// contain no edge. Costs come from a small palette, so ties plant several
// optimal covers; `dyadic` palettes sum exactly in any order.
struct RandomConflicts {
  Database db;
  ViolationSet violations;
};

RandomConflicts MakeRandomConflicts(std::shared_ptr<const Schema> schema,
                                    Rng& rng, size_t n, bool dyadic,
                                    bool hyper) {
  static constexpr double kDyadic[] = {0.25, 0.75, 1.5, 1.5, 2.125};
  static constexpr double kDecimal[] = {0.1, 0.3, 0.7, 0.7, 2.2};
  RandomConflicts out{Database(std::move(schema)), ViolationSet()};
  for (size_t i = 0; i < n; ++i) {
    const FactId id = out.db.Insert(
        Fact(0, {Value(static_cast<int64_t>(i)), Value(0), Value(0)}));
    const size_t pick = rng.UniformIndex(5);
    out.db.set_deletion_cost(id, dyadic ? kDyadic[pick] : kDecimal[pick]);
  }
  const size_t groups = 1 + rng.UniformIndex(4);
  std::vector<size_t> group(n);
  std::vector<bool> self(n, false);
  for (size_t i = 0; i < n; ++i) {
    group[i] = rng.UniformIndex(groups);
    self[i] = rng.Bernoulli(0.08);
    if (self[i]) out.violations.Add({static_cast<FactId>(i)});
  }
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (self[a] || self[b] || group[a] != group[b]) continue;
      if (!rng.Bernoulli(0.35)) continue;
      adj[a][b] = adj[b][a] = true;
      out.violations.Add({static_cast<FactId>(a), static_cast<FactId>(b)});
    }
  }
  for (int t = 0; hyper && t < 3; ++t) {
    const size_t a = rng.UniformIndex(n);
    const size_t b = rng.UniformIndex(n);
    const size_t c = rng.UniformIndex(n);
    if (a == b || b == c || a == c || self[a] || self[b] || self[c]) continue;
    if (adj[a][b] || adj[b][c] || adj[a][c]) continue;
    std::vector<FactId> triple{static_cast<FactId>(a), static_cast<FactId>(b),
                               static_cast<FactId>(c)};
    std::sort(triple.begin(), triple.end());
    out.violations.Add(std::move(triple));
  }
  return out;
}

// The minimum cost of a fact set hitting every minimal subset, by
// enumeration (n <= 16).
double BruteForceMinRepair(const Database& db, const ViolationSet& vs,
                           size_t n) {
  double best = -1.0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool covers = true;
    for (const auto& subset : vs.minimal_subsets()) {
      bool hit = false;
      for (const FactId f : subset) hit = hit || ((mask >> f) & 1u) != 0;
      if (!hit) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    double cost = 0.0;
    for (uint32_t f = 0; f < n; ++f) {
      if ((mask >> f) & 1u) cost += db.deletion_cost(f);
    }
    if (best < 0.0 || cost < best) best = cost;
  }
  return best;
}

// The Figure 2 LP over the problematic facts, built from MI directly.
double CoveringLpValue(const Database& db, const ViolationSet& vs) {
  std::map<FactId, uint32_t> index;
  CoveringProblem problem;
  for (const auto& subset : vs.minimal_subsets()) {
    std::vector<uint32_t> set;
    for (const FactId f : subset) {
      const auto [it, added] = index.emplace(f, problem.costs.size());
      if (added) problem.costs.push_back(db.deletion_cost(f));
      set.push_back(it->second);
    }
    std::sort(set.begin(), set.end());
    problem.sets.push_back(std::move(set));
  }
  const LpSolution lp = SolveCoveringLpRelaxation(problem);
  EXPECT_EQ(lp.status, LpStatus::kOptimal);
  return lp.objective;
}

TEST(RepairMemo, SharedLpMatchesIndependentSolves) {
  const auto schema = testing::MakeAbcSchema();
  const ViolationDetector detector(schema, {});
  const MinRepairMeasure exact;
  const LinRepairMeasure lin;
  Rng rng(20261019);
  size_t covering_ilp_cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const bool dyadic = trial % 2 == 0;
    const bool hyper = trial % 10 == 9;
    const size_t n = 4 + rng.UniformIndex(13);  // 4..16
    const RandomConflicts rc =
        MakeRandomConflicts(schema, rng, n, dyadic, hyper);
    const std::string where = "trial " + std::to_string(trial);

    MeasureContext r_first(detector, rc.db, rc.violations);
    const double ir = exact.Evaluate(r_first);
    const double lin_r = lin.Evaluate(r_first);
    MeasureContext lin_first(detector, rc.db, rc.violations);
    EXPECT_EQ(lin.Evaluate(lin_first), lin_r) << where;
    EXPECT_EQ(exact.Evaluate(lin_first), ir) << where;
    MeasureContext fresh_r(detector, rc.db, rc.violations);
    EXPECT_EQ(exact.Evaluate(fresh_r), ir) << where;
    MeasureContext fresh_lin(detector, rc.db, rc.violations);
    EXPECT_EQ(lin.Evaluate(fresh_lin), lin_r) << where;

    // I_R is the true optimum; exact sums for dyadic costs.
    const double brute = BruteForceMinRepair(rc.db, rc.violations, n);
    if (dyadic) {
      EXPECT_EQ(ir, brute) << where;
    } else {
      EXPECT_NEAR(ir, brute, 1e-9) << where;
    }
    EXPECT_NEAR(lin_r, CoveringLpValue(rc.db, rc.violations), 1e-9) << where;

    // The accessors read the same memo.
    const std::vector<FactId> repair = exact.OptimalRepair(r_first);
    double repair_cost = 0.0;
    for (const FactId f : repair) repair_cost += rc.db.deletion_cost(f);
    if (dyadic) {
      EXPECT_EQ(repair_cost, ir) << where;
    } else {
      EXPECT_NEAR(repair_cost, ir, 1e-9) << where;
    }
    double fractional_cost = 0.0;
    for (const auto& [f, x] : lin.FractionalSolution(r_first)) {
      fractional_cost += rc.db.deletion_cost(f) * x;
    }
    EXPECT_NEAR(fractional_cost, lin_r, 1e-9) << where;

    // The whole-graph half-integral cover, restricted to a component, is
    // that component's standalone cover.
    const RepairInstance& inst = r_first.repair();
    if (!inst.binary()) {
      ++covering_ilp_cases;
      continue;
    }
    for (size_t c = 0; c < inst.components.graphs.size(); ++c) {
      const std::vector<uint32_t>& members = inst.components.members[c];
      std::vector<double> w;
      for (const uint32_t v : members) w.push_back(inst.weights[v]);
      const FractionalVcResult alone =
          FractionalVertexCover(inst.components.graphs[c], w);
      for (size_t i = 0; i < members.size(); ++i) {
        EXPECT_EQ(inst.lp.x[members[i]], alone.x[i])
            << where << " component " << c << " member " << i;
      }
    }
  }
  EXPECT_GT(covering_ilp_cases, 0u);  // the hyperedge path ran
}

// ---- Shapley attribution ----

TEST(Shapley, ClosedFormSumsToMiCount) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d1);
  const auto shares = ShapleyMiValues(context);
  double total = 0.0;
  for (const auto& [id, v] : shares) total += v;
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(Shapley, ClosedFormMatchesExactPermutationShapley) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d2);
  const auto closed = ShapleyMiValues(context);
  MiCountMeasure mi;
  const auto exact = ShapleySampled(mi, detector, example.d2, 0, 1);
  ASSERT_EQ(closed.size(), exact.size());
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].first, exact[i].first);
    EXPECT_NEAR(closed[i].second, exact[i].second, 1e-9)
        << "fact " << closed[i].first;
  }
}

TEST(Shapley, HighestBlameOnMostConflictedFact) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d2);
  const auto shares = ShapleyMiValues(context);
  // In D2, f2 and f4 participate in 3 violations each; f1 in none.
  double f1 = -1.0;
  double f2 = -1.0;
  for (const auto& [id, v] : shares) {
    if (id == 1) f1 = v;
    if (id == 2) f2 = v;
  }
  EXPECT_DOUBLE_EQ(f1, 0.0);
  EXPECT_DOUBLE_EQ(f2, 1.5);
}

}  // namespace
}  // namespace dbim
