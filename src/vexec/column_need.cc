#include "vexec/column_need.h"

#include "vexec/join_table.h"

namespace mqo {

namespace {

/// Splits a join's need across its inputs, classes `left` and `right`.
Result<JoinNeed> SplitJoinNeed(Memo* memo, const ColumnNeed& need, EqId left,
                               EqId right, const JoinPredicate& predicate) {
  const std::vector<ColumnRef>& left_attrs =
      memo->Attributes(memo->Find(left));
  const std::vector<ColumnRef>& right_attrs =
      memo->Attributes(memo->Find(right));
  MQO_ASSIGN_OR_RETURN(JoinSpec spec,
                       ResolveJoinSpec(left_attrs, right_attrs, predicate));
  JoinNeed split;
  split.probe = left;
  split.build = right;
  for (const auto& col : left_attrs) {
    if (need.count(col) > 0) split.left_out.insert(col);
  }
  for (const auto& col : right_attrs) {
    if (need.count(col) > 0) split.right_out.insert(col);
  }
  split.left = split.left_out;
  split.right = split.right_out;
  for (const auto& c : spec.conds) {
    split.left_keys.push_back(left_attrs[c.left]);
    split.right_keys.push_back(right_attrs[c.right]);
    split.left.insert(left_attrs[c.left]);
    split.right.insert(right_attrs[c.right]);
  }
  return split;
}

}  // namespace

std::vector<ColumnRef> NeedAttrs(Memo* memo, EqId eq, const ColumnNeed& need) {
  std::vector<ColumnRef> out;
  for (const auto& col : memo->Attributes(memo->Find(eq))) {
    if (need.count(col) > 0) out.push_back(col);
  }
  return out;
}

ColumnNeed AggregateNeed(const MemoOp& agg) {
  ColumnNeed need(agg.group_by.begin(), agg.group_by.end());
  for (const auto& a : agg.aggregates) {
    if (!a.arg.name.empty()) need.insert(a.arg);
  }
  return need;
}

Result<ColumnNeed> InputNeed(Memo* memo, const PlanNode& node,
                             const ColumnNeed& need, JoinNeed* join) {
  const MemoOp* op =
      node.logical_op >= 0 ? &memo->op(node.logical_op) : nullptr;
  switch (node.op) {
    case PhysOp::kSort:
      return need;
    case PhysOp::kFilter: {
      if (op == nullptr) return Status::Internal("filter without op");
      ColumnNeed out = need;
      for (const auto& cmp : op->predicate.conjuncts()) out.insert(cmp.column);
      return out;
    }
    case PhysOp::kProject:
      if (op == nullptr) return Status::Internal("project without op");
      return ColumnNeed(op->project_columns.begin(),
                        op->project_columns.end());
    case PhysOp::kSortAggregate:
      if (op == nullptr) return Status::Internal("aggregate without op");
      return AggregateNeed(*op);
    case PhysOp::kBlockNLJoin:
    case PhysOp::kIndexNLJoin:
    case PhysOp::kMergeJoin: {
      // A one-child join reads its inner side (a materialized node or a base
      // relation) outside the plan tree.
      if (op == nullptr) return Status::Internal("join without op");
      const EqId build = node.children.size() > 1 ? node.children[1]->eq
                                                  : op->children[1];
      MQO_ASSIGN_OR_RETURN(*join,
                           SplitJoinNeed(memo, need, node.children[0]->eq,
                                         build, op->join_predicate));
      return join->left;
    }
    default:
      return Status::Internal(std::string("no input need for ") +
                              PhysOpToString(node.op));
  }
}

namespace {

/// Adds `need` ∩ the attributes of `eq` to `eq`'s entry when `eq` is
/// materialized.
void AddRead(Memo* memo, EqId eq, const ColumnNeed& need,
             const std::unordered_set<EqId>& materialized,
             std::unordered_map<EqId, ColumnNeed>* needs) {
  eq = memo->Find(eq);
  if (materialized.count(eq) == 0) return;
  ColumnNeed& reads = (*needs)[eq];
  for (const auto& col : NeedAttrs(memo, eq, need)) reads.insert(col);
}

}  // namespace

Status AddSegmentReads(Memo* memo, const PlanNodePtr& root, ColumnNeed need,
                       const std::unordered_set<EqId>& materialized,
                       std::unordered_map<EqId, ColumnNeed>* needs) {
  // As VectorPlanExecutor::ExecuteBatch runs it: the pipeline's chain down
  // to its source, each build child as its own execution.
  PlanNodePtr plan = root;
  for (;;) {
    switch (plan->op) {
      case PhysOp::kTableScan:
      case PhysOp::kIndexScan:
        return Status::OK();
      case PhysOp::kReadMaterialized:
        AddRead(memo, plan->eq, need, materialized, needs);
        return Status::OK();
      case PhysOp::kBatchRoot:
        return Status::Unimplemented(
            "execute batch roots via ExecuteConsolidated");
      default: {
        JoinNeed split;
        MQO_ASSIGN_OR_RETURN(need, InputNeed(memo, *plan, need, &split));
        if (plan->children.size() > 1) {
          MQO_RETURN_NOT_OK(AddSegmentReads(memo, plan->children[1],
                                            std::move(split.right),
                                            materialized, needs));
        } else if (split.build >= 0) {
          AddRead(memo, split.build, split.right, materialized, needs);
        }
        plan = plan->children[0];
        break;
      }
    }
  }
}

}  // namespace mqo
