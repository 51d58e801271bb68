#include "exec/plan_executor.h"

#include "exec/row_ops.h"
#include "obs/obs.h"

namespace mqo {

Result<NamedRows> PlanExecutor::SideInput(EqId eq) {
  // Pin across the row conversion so eviction cannot swap the segment out
  // mid-read.
  MQO_ASSIGN_OR_RETURN(PinnedSegment pinned, ReadSegment(eq));
  if (pinned.valid()) return BatchToRows(pinned.batch());
  return evaluator_.EvaluateClass(memo_->Find(eq));
}

Result<NamedRows> PlanExecutor::ExecuteUncanonicalized(const PlanNodePtr& plan) {
  const MemoOp* op =
      plan->logical_op >= 0 ? &memo_->op(plan->logical_op) : nullptr;
  switch (plan->op) {
    case PhysOp::kTableScan: {
      if (op == nullptr) return Status::Internal("scan without logical op");
      return ScanRows(*data_, op->table, op->alias);
    }
    case PhysOp::kIndexScan: {
      // Indexed selection: logical op is the Select; its child is the base
      // relation it probes.
      if (op == nullptr) return Status::Internal("index scan without op");
      MQO_ASSIGN_OR_RETURN(NamedRows in,
                           evaluator_.EvaluateClass(op->children[0]));
      return FilterRows(in, op->predicate);
    }
    case PhysOp::kFilter: {
      if (op == nullptr) return Status::Internal("filter without op");
      MQO_ASSIGN_OR_RETURN(NamedRows in, Execute(plan->children[0]));
      return FilterRows(in, op->predicate);
    }
    case PhysOp::kBlockNLJoin:
    case PhysOp::kIndexNLJoin:
    case PhysOp::kMergeJoin: {
      if (op == nullptr) return Status::Internal("join without op");
      MQO_ASSIGN_OR_RETURN(NamedRows left, Execute(plan->children[0]));
      NamedRows right;
      if (plan->children.size() > 1) {
        MQO_ASSIGN_OR_RETURN(right, Execute(plan->children[1]));
      } else {
        // BNL/index probes rescan a base relation or materialized node that
        // is not part of the plan tree.
        MQO_ASSIGN_OR_RETURN(right, SideInput(op->children[1]));
      }
      return JoinRows(left, right, op->join_predicate);
    }
    case PhysOp::kSort:
      // Bag semantics: sorting does not change the result relation.
      return Execute(plan->children[0]);
    case PhysOp::kSortAggregate: {
      if (op == nullptr) return Status::Internal("aggregate without op");
      MQO_ASSIGN_OR_RETURN(NamedRows in, Execute(plan->children[0]));
      return AggregateRows(in, op->group_by, op->aggregates,
                           op->output_renames);
    }
    case PhysOp::kProject: {
      if (op == nullptr) return Status::Internal("project without op");
      MQO_ASSIGN_OR_RETURN(NamedRows in, Execute(plan->children[0]));
      NamedRows out = in;
      MQO_RETURN_NOT_OK(Canonicalize(op->project_columns, &out));
      return out;
    }
    case PhysOp::kReadMaterialized: {
      MQO_ASSIGN_OR_RETURN(PinnedSegment pinned, ReadSegment(plan->eq));
      if (!pinned.valid()) {
        return Status::Internal("node E" +
                                std::to_string(memo_->Find(plan->eq)) +
                                " was not materialized");
      }
      return BatchToRows(pinned.batch());
    }
    case PhysOp::kBatchRoot:
      return Status::Unimplemented("execute batch roots via ExecuteConsolidated");
  }
  return Status::Internal("unknown physical operator");
}

Result<NamedRows> PlanExecutor::Execute(const PlanNodePtr& plan) {
  // Serial interpreter: these spans nest exactly like the plan tree, so a
  // trace of a row-engine run is a flame graph of the plan.
  TraceSpan span(TracerOf(options_.obs),
                 std::string("op.") + PhysOpToString(plan->op), "exec");
  MQO_ASSIGN_OR_RETURN(NamedRows raw, ExecuteUncanonicalized(plan));
  const auto& attrs = memo_->Attributes(memo_->Find(plan->eq));
  MQO_RETURN_NOT_OK(Canonicalize(attrs, &raw));
  if (span.active()) {
    span.AddNum("eq", memo_->Find(plan->eq));
    span.AddNum("out_rows", static_cast<double>(raw.rows.size()));
  }
  return raw;
}

Result<ColumnBatch> PlanExecutor::ComputeSegment(
    const PlanNodePtr& compute_plan) {
  MQO_ASSIGN_OR_RETURN(NamedRows rows, Execute(compute_plan));
  // Segments are stored columnar even for the row engine, so both executors
  // share one materialization format.
  return BatchFromRows(rows);
}

}  // namespace mqo
