#include "lqdag/rules.h"

#include <algorithm>
#include <map>
#include <set>

namespace mqo {

namespace {

/// True iff every column in `cols` is produced by class `cls`.
bool Covers(Memo* memo, EqId cls, const std::vector<ColumnRef>& cols) {
  const auto& attrs = memo->Attributes(cls);
  for (const auto& c : cols) {
    if (!std::binary_search(attrs.begin(), attrs.end(), c)) return false;
  }
  return true;
}

/// Join commutativity: Join[p](l, r) => Join[p](r, l). The join predicate is
/// stored in canonical (side-agnostic) form, so only the child order flips.
void ApplyCommutativity(Memo* memo, OpId oid) {
  const MemoOp op = memo->op(oid);  // copy: AddOp may reallocate ops_
  if (op.kind != LogicalOp::kJoin) return;
  MemoOp swapped = op;
  std::swap(swapped.children[0], swapped.children[1]);
  memo->AddOp(std::move(swapped), memo->Find(op.owner));
}

/// Join associativity: for J = (A ⋈ B) ⋈ R where the left child class
/// contains a join (A ⋈ B), derive A ⋈ (B ⋈ R). Conditions from both joins
/// are pooled and redistributed by which sides they span; the rewrite is
/// skipped if the new lower join would be a cross product.
void ApplyAssociativity(Memo* memo, OpId oid) {
  const MemoOp top = memo->op(oid);
  if (top.kind != LogicalOp::kJoin) return;
  const EqId left_cls = memo->Find(top.children[0]);
  const EqId right_cls = memo->Find(top.children[1]);

  for (OpId bid : memo->ClassOps(left_cls)) {
    const MemoOp bottom = memo->op(bid);
    if (bottom.kind != LogicalOp::kJoin) continue;
    const EqId a_cls = memo->Find(bottom.children[0]);
    const EqId b_cls = memo->Find(bottom.children[1]);

    // Pool all conditions and split: a condition goes to the new lower join
    // (B ⋈ R) iff it is entirely over attrs(B) ∪ attrs(R) but not entirely
    // over one side's attrs alone... conditions within one side cannot occur
    // (they would be selections). Everything else goes to the new upper join.
    std::vector<JoinCondition> pool = top.join_predicate.conditions();
    const auto& bottom_conds = bottom.join_predicate.conditions();
    pool.insert(pool.end(), bottom_conds.begin(), bottom_conds.end());

    std::vector<JoinCondition> lower_conds;
    std::vector<JoinCondition> upper_conds;
    bool ok = true;
    for (const auto& cond : pool) {
      const std::vector<ColumnRef> cols = {cond.left, cond.right};
      const bool in_br = Covers(memo, b_cls, {cond.left})
                             ? Covers(memo, right_cls, {cond.right})
                             : (Covers(memo, right_cls, {cond.left}) &&
                                Covers(memo, b_cls, {cond.right}));
      if (in_br) {
        lower_conds.push_back(cond);
        continue;
      }
      // Must involve A and one of {B, R} (or be the original A-B condition).
      const bool touches_a =
          Covers(memo, a_cls, {cond.left}) || Covers(memo, a_cls, {cond.right});
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
    memo->AddOp(std::move(upper), memo->Find(top.owner));
  }
}

/// Select subsumption: for sigma_p1(E) and sigma_p2(E) over the same child
/// class where p1 => p2 strictly, add the derivation sigma_p1(sigma_p2(E))
/// to the class of sigma_p1(E). This lets a query with a tighter constant
/// reuse the materialized result of the weaker selection (Section 6).
void ApplySelectSubsumption(Memo* memo) {
  // Group live select-ops by child class.
  std::map<EqId, std::vector<OpId>> by_child;
  const int nops = memo->num_ops();
  for (OpId oid = 0; oid < nops; ++oid) {
    const MemoOp& op = memo->op(oid);
    if (op.deleted || op.kind != LogicalOp::kSelect) continue;
    by_child[memo->Find(op.children[0])].push_back(oid);
  }
  for (auto& [child, sel_ops] : by_child) {
    for (OpId i : sel_ops) {
      for (OpId j : sel_ops) {
        if (i == j) continue;
        const MemoOp a = memo->op(i);  // stronger candidate
        const MemoOp b = memo->op(j);  // weaker candidate
        if (a.deleted || b.deleted) continue;
        if (a.predicate == b.predicate) continue;
        if (!PredicateImplies(a.predicate, b.predicate)) continue;
        MemoOp derived;
        derived.kind = LogicalOp::kSelect;
        derived.predicate = a.predicate;
        derived.children = {memo->Find(b.owner)};
        memo->AddOp(std::move(derived), memo->Find(a.owner));
      }
    }
  }
}

/// Aggregate subsumption: gamma_{G1,A1}(E) can be computed from
/// gamma_{G2,A2}(E) when G1 is a strict subset of G2 and every aggregate in
/// A1 appears in A2 with a decomposable function. The derived operator
/// re-aggregates the pre-aggregated columns (COUNT re-aggregates as SUM) and
/// renames its outputs to match the original aggregate's schema.
void ApplyAggregateSubsumption(Memo* memo) {
  std::map<EqId, std::vector<OpId>> by_child;
  const int nops = memo->num_ops();
  for (OpId oid = 0; oid < nops; ++oid) {
    const MemoOp& op = memo->op(oid);
    if (op.deleted || op.kind != LogicalOp::kAggregate) continue;
    // Re-aggregation ops (with renames) are derived; do not chain them as
    // sources to keep the rule terminating on a fixed alphabet of ops.
    if (!op.output_renames.empty()) continue;
    by_child[memo->Find(op.children[0])].push_back(oid);
  }
  for (auto& [child, agg_ops] : by_child) {
    for (OpId i : agg_ops) {
      for (OpId j : agg_ops) {
        if (i == j) continue;
        const MemoOp fine = memo->op(j);    // G2 (finer grouping)
        const MemoOp coarse = memo->op(i);  // G1 (coarser grouping)
        if (fine.deleted || coarse.deleted) continue;
        // G1 strict subset of G2.
        if (coarse.group_by.size() >= fine.group_by.size()) continue;
        if (!std::includes(fine.group_by.begin(), fine.group_by.end(),
                           coarse.group_by.begin(), coarse.group_by.end())) {
          continue;
        }
        // Each coarse aggregate must be decomposable and present in `fine`.
        bool ok = true;
        std::vector<AggExpr> reaggs;
        std::vector<std::string> renames;
        for (const auto& agg : coarse.aggregates) {
          if (!AggFuncDecomposable(agg.func)) {
            ok = false;
            break;
          }
          const bool present =
              std::find(fine.aggregates.begin(), fine.aggregates.end(), agg) !=
              fine.aggregates.end();
          if (!present) {
            ok = false;
            break;
          }
          AggExpr re;
          re.func = (agg.func == AggFunc::kCount) ? AggFunc::kSum : agg.func;
          re.arg = agg.OutputColumn();
          reaggs.push_back(re);
          renames.push_back(agg.OutputName());
        }
        if (!ok) continue;
        MemoOp derived;
        derived.kind = LogicalOp::kAggregate;
        derived.group_by = coarse.group_by;
        derived.aggregates = std::move(reaggs);
        derived.output_renames = std::move(renames);
        derived.children = {memo->Find(fine.owner)};
        memo->AddOp(std::move(derived), memo->Find(coarse.owner));
      }
    }
  }
}

}  // namespace

Result<ExpansionStats> ExpandMemo(Memo* memo, const ExpansionOptions& options) {
  ExpansionStats stats;
  stats.ops_before = memo->num_live_ops();

  // Pass until fixpoint: rules are idempotent thanks to hash-consing, so the
  // op count (plus merge count) is a sound progress measure.
  int prev_ops = -1;
  int prev_merges = -1;
  while (memo->num_ops() != prev_ops || memo->num_merges() != prev_merges) {
    prev_ops = memo->num_ops();
    prev_merges = memo->num_merges();
    ++stats.passes;

    // Join rules: iterate over a growing op list; newly added ops are picked
    // up within the same pass (indices only grow).
    for (OpId oid = 0; oid < memo->num_ops(); ++oid) {
      if (memo->op(oid).deleted) continue;
      ApplyCommutativity(memo, oid);
      ApplyAssociativity(memo, oid);
      if (memo->num_ops() > options.max_ops) {
        return Status::OutOfRange("memo expansion exceeded max_ops");
      }
    }
    ApplySelectSubsumption(memo);
    ApplyAggregateSubsumption(memo);
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
