#include "lqdag/rules.h"

#include <algorithm>
#include <map>

namespace mqo {

namespace {

/// True iff column `c` is produced by class `cls`.
bool Produces(Memo* memo, EqId cls, const ColumnRef& c) {
  const auto& attrs = memo->Attributes(cls);
  return std::binary_search(attrs.begin(), attrs.end(), c);
}

/// Join commutativity: Join[p](l, r) => Join[p](r, l). The join predicate is
/// stored in canonical (side-agnostic) form, so only the child order flips.
void ApplyCommutativity(Memo* memo, OpId oid) {
  const MemoOp& op = memo->op(oid);
  MemoOp swapped;
  swapped.kind = LogicalOp::kJoin;
  swapped.children = {op.children[1], op.children[0]};
  swapped.join_predicate = op.join_predicate;
  const EqId owner = memo->Find(op.owner);
  memo->AddOp(std::move(swapped), owner);
}

/// Join associativity: for J = (A ⋈ B) ⋈ R where the left child class
/// contains a join (A ⋈ B), derive A ⋈ (B ⋈ R). Conditions from both joins
/// are pooled and redistributed by which sides they span; the rewrite is
/// skipped if the new lower join would be a cross product.
void ApplyAssociativity(Memo* memo, OpId oid) {
  // Only ids are kept across the AddOp calls below; the ops are re-read.
  const EqId left_cls = memo->Find(memo->op(oid).children[0]);
  const EqId right_cls = memo->Find(memo->op(oid).children[1]);
  const EqId top_owner = memo->op(oid).owner;

  for (OpId bid : memo->ClassOps(left_cls)) {
    const MemoOp& bottom = memo->op(bid);
    if (bottom.kind != LogicalOp::kJoin) continue;
    const EqId a_cls = memo->Find(bottom.children[0]);
    const EqId b_cls = memo->Find(bottom.children[1]);

    // Pool all conditions and split: a condition goes to the new lower join
    // (B ⋈ R) iff it is entirely over attrs(B) ∪ attrs(R) but not entirely
    // over one side's attrs alone... conditions within one side cannot occur
    // (they would be selections). Everything else goes to the new upper join.
    std::vector<JoinCondition> pool = memo->op(oid).join_predicate.conditions();
    const auto& bottom_conds = bottom.join_predicate.conditions();
    pool.insert(pool.end(), bottom_conds.begin(), bottom_conds.end());

    std::vector<JoinCondition> lower_conds;
    std::vector<JoinCondition> upper_conds;
    bool ok = true;
    for (const auto& cond : pool) {
      const bool in_br = Produces(memo, b_cls, cond.left)
                             ? Produces(memo, right_cls, cond.right)
                             : (Produces(memo, right_cls, cond.left) &&
                                Produces(memo, b_cls, cond.right));
      if (in_br) {
        lower_conds.push_back(cond);
        continue;
      }
      // Must involve A and one of {B, R} (or be the original A-B condition).
      const bool touches_a = Produces(memo, a_cls, cond.left) ||
                             Produces(memo, a_cls, cond.right);
      if (!touches_a) {
        ok = false;  // spans B and R but neither fully — unexpected; bail out
        break;
      }
      upper_conds.push_back(cond);
    }
    if (!ok || lower_conds.empty() || upper_conds.empty()) continue;

    MemoOp lower;
    lower.kind = LogicalOp::kJoin;
    lower.children = {b_cls, right_cls};
    lower.join_predicate = JoinPredicate(std::move(lower_conds));
    const EqId lower_eq = memo->AddOp(std::move(lower));

    MemoOp upper;
    upper.kind = LogicalOp::kJoin;
    upper.children = {a_cls, lower_eq};
    upper.join_predicate = JoinPredicate(std::move(upper_conds));
    memo->AddOp(std::move(upper), memo->Find(top_owner));
  }
}

/// The subsumption rules' pairwise driver: calls `derive(memo, i, j)` for
/// each ordered pair of distinct live `kind` ops over one canonical child
/// class, skipping pairs whose ops were both paired under that class before
/// (`paired_under`). Re-aggregations (ops with output renames) are derived
/// by the rule and never paired, which keeps it terminating. Returns whether
/// any pair was tried.
bool ForEachNewPair(Memo* memo, LogicalOp kind,
                    std::vector<EqId>* paired_under,
                    void (*derive)(Memo*, OpId, OpId)) {
  std::map<EqId, std::vector<OpId>> by_child;
  const int nops = memo->num_ops();
  paired_under->resize(nops, -1);
  for (OpId oid = 0; oid < nops; ++oid) {
    const MemoOp& op = memo->op(oid);
    if (op.deleted || op.kind != kind || !op.output_renames.empty()) continue;
    by_child[memo->Find(op.children[0])].push_back(oid);
  }
  bool tried = false;
  for (const auto& [child, ops] : by_child) {
    for (OpId i : ops) {
      for (OpId j : ops) {
        if (i == j) continue;
        if ((*paired_under)[i] == child && (*paired_under)[j] == child) {
          continue;
        }
        if (memo->op(i).deleted || memo->op(j).deleted) continue;
        derive(memo, i, j);
        tried = true;
      }
    }
    for (OpId oid : ops) (*paired_under)[oid] = child;
  }
  return tried;
}

/// Select subsumption: for sigma_p1(E) and sigma_p2(E) over the same child
/// class where p1 => p2 strictly, add the derivation sigma_p1(sigma_p2(E))
/// to the class of sigma_p1(E). This lets a query with a tighter constant
/// reuse the materialized result of the weaker selection (Section 6).
void DeriveSelectSubsumption(Memo* memo, OpId stronger, OpId weaker) {
  const MemoOp& a = memo->op(stronger);
  const MemoOp& b = memo->op(weaker);
  if (a.predicate == b.predicate) return;
  if (!PredicateImplies(a.predicate, b.predicate)) return;
  MemoOp derived;
  derived.kind = LogicalOp::kSelect;
  derived.predicate = a.predicate;
  derived.children = {memo->Find(b.owner)};
  const EqId target = memo->Find(a.owner);
  memo->AddOp(std::move(derived), target);
}

/// Aggregate subsumption: gamma_{G1,A1}(E) can be computed from
/// gamma_{G2,A2}(E) when G1 is a strict subset of G2 and every aggregate in
/// A1 appears in A2 with a decomposable function. The derived operator
/// re-aggregates the pre-aggregated columns (COUNT re-aggregates as SUM) and
/// renames its outputs to match the original aggregate's schema.
void DeriveAggregateSubsumption(Memo* memo, OpId coarse_id, OpId fine_id) {
  const MemoOp& fine = memo->op(fine_id);      // G2 (finer grouping)
  const MemoOp& coarse = memo->op(coarse_id);  // G1 (coarser grouping)
  // G1 strict subset of G2.
  if (coarse.group_by.size() >= fine.group_by.size()) return;
  if (!std::includes(fine.group_by.begin(), fine.group_by.end(),
                     coarse.group_by.begin(), coarse.group_by.end())) {
    return;
  }
  // Each coarse aggregate must be decomposable and present in `fine`.
  std::vector<AggExpr> reaggs;
  std::vector<std::string> renames;
  for (const auto& agg : coarse.aggregates) {
    if (!AggFuncDecomposable(agg.func)) return;
    if (std::find(fine.aggregates.begin(), fine.aggregates.end(), agg) ==
        fine.aggregates.end()) {
      return;
    }
    AggExpr re;
    re.func = (agg.func == AggFunc::kCount) ? AggFunc::kSum : agg.func;
    re.arg = agg.OutputColumn();
    reaggs.push_back(re);
    renames.push_back(agg.OutputName());
  }
  MemoOp derived;
  derived.kind = LogicalOp::kAggregate;
  derived.group_by = coarse.group_by;
  derived.aggregates = std::move(reaggs);
  derived.output_renames = std::move(renames);
  derived.children = {memo->Find(fine.owner)};
  const EqId target = memo->Find(coarse.owner);
  memo->AddOp(std::move(derived), target);
}

/// What a join last derived from: its canonical left child class and that
/// class's Memo::ClassGrowth. A join is stale while the pair differs.
struct LeftChildStamp {
  EqId cls = -1;
  int growth = 0;
};

}  // namespace

Result<ExpansionStats> ExpandMemo(Memo* memo, const ExpansionOptions& options) {
  ExpansionStats stats;
  stats.ops_before = memo->num_live_ops();

  std::vector<LeftChildStamp> joins_visited;
  std::vector<EqId> selects_paired;
  std::vector<EqId> aggregates_paired;
  // A round visits the stale joins in ascending op id (appended ones
  // included), then the new subsumption pairs; one with nothing to do ends.
  for (bool derived = true; derived;) {
    derived = false;
    for (OpId oid = 0; oid < memo->num_ops(); ++oid) {
      const MemoOp& op = memo->op(oid);
      if (op.deleted || op.kind != LogicalOp::kJoin) continue;
      joins_visited.resize(memo->num_ops());
      const LeftChildStamp& seen = joins_visited[oid];
      if (seen.cls == memo->Find(op.children[0]) &&
          seen.growth == memo->ClassGrowth(seen.cls)) {
        continue;
      }
      ApplyCommutativity(memo, oid);
      // Stamp the left class as associativity reads it.
      const EqId left = memo->Find(memo->op(oid).children[0]);
      joins_visited[oid] = {left, memo->ClassGrowth(left)};
      ApplyAssociativity(memo, oid);
      derived = true;
      if (memo->num_ops() > options.max_ops) {
        return Status::OutOfRange("memo expansion exceeded max_ops");
      }
    }
    derived |= ForEachNewPair(memo, LogicalOp::kSelect, &selects_paired,
                              DeriveSelectSubsumption);
    derived |= ForEachNewPair(memo, LogicalOp::kAggregate, &aggregates_paired,
                              DeriveAggregateSubsumption);
    if (memo->num_ops() > options.max_ops) {
      return Status::OutOfRange("memo expansion exceeded max_ops");
    }
  }

  stats.ops_after = memo->num_live_ops();
  stats.classes_after = static_cast<int>(memo->AllClasses().size());
  stats.merges = memo->num_merges();
  return stats;
}

}  // namespace mqo
