#include "violations/eval_kernel.h"

#include <cmath>
#include <string>

#include "common/check.h"

namespace dbim {

namespace {

// A class's canonical value decorated for sorting: the kind rank of
// Value's order (null < numeric < string) and the payload. Sorting keys
// instead of Values keeps pool reads and variant dispatch out of the
// comparator.
struct OrderKey {
  int kind = 0;
  int64_t i = 0;  // ints, when `exact_ints`
  double d = 0;   // every other numeric
  const std::string* s = nullptr;
};

// Decorates `classes` for the rank sort, or returns false when Value's order is
// not a strict weak order on their canonical values. Nulls, strings,
// doubles and ints each order totally among themselves, and an int of
// magnitude <= 2^53 converts to double exactly, so mixed int/double
// compares agree with int/int ones. Two cases break transitivity: a NaN
// (incomparable to everything, yet equal to nothing) and an int beyond
// 2^53 compared with a double (2^54 - 1 and 2^54 + 1 both equal 2^54.0 but
// differ from each other). Wide ints without doubles keep int compares.
bool DecorateClasses(const ValuePool& pool, const std::vector<ValueId>& classes,
                     std::vector<OrderKey>* keys, bool* exact_ints) {
  constexpr int64_t kExact = int64_t{1} << 53;
  bool has_double = false;
  bool has_wide_int = false;
  keys->resize(classes.size());
  for (size_t k = 0; k < classes.size(); ++k) {
    const Value& v = pool.value(classes[k]);
    OrderKey& key = (*keys)[k];
    switch (v.kind()) {
      case Value::Kind::kNull:
        key.kind = 0;
        break;
      case Value::Kind::kInt:
        key.kind = 1;
        key.i = v.as_int();
        key.d = v.numeric();
        if (key.i > kExact || key.i < -kExact) has_wide_int = true;
        break;
      case Value::Kind::kDouble:
        key.kind = 1;
        key.d = v.as_double();
        if (std::isnan(key.d)) return false;
        has_double = true;
        break;
      case Value::Kind::kString:
        key.kind = 2;
        key.s = &v.as_string();
        break;
    }
  }
  *exact_ints = has_wide_int;
  return !(has_double && has_wide_int);
}

}  // namespace

std::vector<RankedOrderPredicate> CompileOrderRanks(
    const DcEval& eval, const Database::RelationBlock& r0,
    const Database::RelationBlock& r1) {
  const DenialConstraint& dc = eval.dc();
  const ValuePool& pool = eval.pool();
  std::vector<RankedOrderPredicate> out;
  for (const Predicate& p : dc.predicates()) {
    if (!p.IsCrossVariable()) continue;
    if (p.op() == CompareOp::kEq || p.op() == CompareOp::kNe) continue;
    const CrossPredicate cross = NormalizeCross(p);
    const std::vector<ValueId>& col0 = r0.class_columns[cross.a0];
    const std::vector<ValueId>& col1 = r1.class_columns[cross.a1];

    // The distinct classes of both columns, first-seen order. `slot` maps
    // a class id to its position; it is indexed by id, so it costs 4 bytes
    // per pool entry for the duration of the call — less than the pool's
    // own per-entry arrays — and makes every lookup an array read.
    std::vector<uint32_t> slot(pool.size(), UINT32_MAX);
    std::vector<ValueId> classes;
    for (const std::vector<ValueId>* col : {&col0, &col1}) {
      for (const ValueId id : *col) {
        if (slot[id] != UINT32_MAX) continue;
        slot[id] = static_cast<uint32_t>(classes.size());
        classes.push_back(id);
      }
    }
    std::vector<OrderKey> keys;
    bool exact_ints = false;
    if (!DecorateClasses(pool, classes, &keys, &exact_ints)) continue;
    // Value's operator< on decorated keys.
    auto less = [&](uint32_t a, uint32_t b) {
      const OrderKey& x = keys[a];
      const OrderKey& y = keys[b];
      if (x.kind != y.kind) return x.kind < y.kind;
      if (x.kind == 1) return exact_ints ? x.i < y.i : x.d < y.d;
      if (x.kind == 2) return *x.s < *y.s;
      return false;
    };

    // Positions of `classes` in value order; equivalent neighbors share a
    // rank.
    std::vector<uint32_t> by_value(classes.size());
    for (uint32_t k = 0; k < by_value.size(); ++k) by_value[k] = k;
    std::sort(by_value.begin(), by_value.end(), less);
    std::vector<uint32_t> rank(classes.size(), 0);
    for (size_t k = 1; k < by_value.size(); ++k) {
      const bool tied = !less(by_value[k - 1], by_value[k]);
      rank[by_value[k]] = rank[by_value[k - 1]] + (tied ? 0 : 1);
    }
    auto rank_column = [&](const std::vector<ValueId>& col) {
      std::vector<uint32_t> ranks(col.size());
      for (size_t row = 0; row < col.size(); ++row) {
        ranks[row] = rank[slot[col[row]]];
      }
      return ranks;
    };
    RankedOrderPredicate ranked;
    ranked.op = cross.op;
    ranked.rank0 = rank_column(col0);
    ranked.rank1 = rank_column(col1);
    out.push_back(std::move(ranked));
  }
  return out;
}

KAryBlockingIndex::KAryBlockingIndex(const DenialConstraint& dc)
    : k_(dc.num_vars()), pair_keys_(k_ * k_), group_of_(k_ * k_, -1) {
  for (uint32_t v = 0; v < k_; ++v) {
    for (uint32_t u = 0; u < k_; ++u) {
      if (u == v) continue;
      PairBlockingKeys keys = ExtractPairBlockingKeys(dc, u, v);
      if (keys.empty()) continue;
      const RelationId rel = dc.var_relation(v);
      int group = -1;
      for (size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].relation == rel && groups_[g].attrs == keys.v_attrs) {
          group = static_cast<int>(g);
          break;
        }
      }
      if (group < 0) {
        group = static_cast<int>(groups_.size());
        groups_.push_back(Group{rel, keys.v_attrs, {}});
      }
      group_of_[v * k_ + u] = group;
      pair_keys_[v * k_ + u] = std::move(keys);
    }
  }
}

void KAryBlockingIndex::Add(const Database& db, FactId id) {
  const Database::RowLocation loc = db.Locate(id);
  const RowRef row{&db.relation_block(loc.relation), loc.row};
  for (Group& group : groups_) {
    if (group.relation != loc.relation) continue;
    group.buckets[HashPoolValues(db.pool(), row, group.attrs)].push_back(id);
  }
}

void KAryBlockingIndex::Remove(const Database& db, FactId id) {
  const Database::RowLocation loc = db.Locate(id);
  const RowRef row{&db.relation_block(loc.relation), loc.row};
  for (Group& group : groups_) {
    if (group.relation != loc.relation) continue;
    const uint64_t h = HashPoolValues(db.pool(), row, group.attrs);
    const auto it = group.buckets.find(h);
    DBIM_CHECK(it != group.buckets.end());
    auto& bucket = it->second;
    const auto pos = std::find(bucket.begin(), bucket.end(), id);
    DBIM_CHECK(pos != bucket.end());
    bucket.erase(pos);  // preserve order: probes stay deterministic
    if (bucket.empty()) group.buckets.erase(it);
  }
}

size_t KAryBlockingIndex::num_bucket_keys() const {
  size_t n = 0;
  for (const Group& group : groups_) n += group.buckets.size();
  return n;
}

bool MakesSelfInconsistentInterned(const DcEval& eval, const Database& db,
                                   FactId id) {
  const DenialConstraint& dc = eval.dc();
  const Database::RowLocation loc = db.Locate(id);
  for (const RelationId r : dc.var_relations()) {
    if (r != loc.relation) return false;
  }
  const RowRef self{&db.relation_block(loc.relation), loc.row};
  std::vector<RowRef> assignment(dc.num_vars(), self);
  return eval.BodyHolds(assignment.data());
}

uint32_t CountDerivations(const DcEval& eval, const Database& db,
                          const std::vector<FactId>& subset) {
  const DenialConstraint& dc = eval.dc();
  const size_t k = dc.num_vars();
  const size_t m = subset.size();
  if (m > k) return 0;

  // Pre-bind every member and check which variable positions its relation
  // admits; bail early when some member fits nowhere.
  std::vector<RowRef> members(m);
  std::vector<RelationId> member_rel(m);
  for (size_t j = 0; j < m; ++j) {
    const Database::RowLocation loc = db.Locate(subset[j]);
    members[j] = RowRef{&db.relation_block(loc.relation), loc.row};
    member_rel[j] = loc.relation;
  }

  // Odometer over the m^k mappings var -> member; count the surjective,
  // relation-compatible, body-satisfying ones. k and m are tiny (the
  // constraint's arity), so this is constant work per subset.
  std::vector<size_t> pick(k, 0);
  std::vector<RowRef> assignment(k);
  uint32_t count = 0;
  while (true) {
    bool compatible = true;
    uint32_t used_mask = 0;
    for (size_t v = 0; v < k && compatible; ++v) {
      if (dc.var_relation(static_cast<uint32_t>(v)) != member_rel[pick[v]]) {
        compatible = false;
        break;
      }
      assignment[v] = members[pick[v]];
      used_mask |= 1u << pick[v];
    }
    if (compatible && used_mask == (1u << m) - 1 &&
        eval.BodyHolds(assignment.data())) {
      ++count;
    }
    size_t v = 0;
    while (v < k && ++pick[v] == m) {
      pick[v] = 0;
      ++v;
    }
    if (v == k) break;
  }
  return count;
}

}  // namespace dbim
