#include "exec/evaluator.h"

#include "exec/row_ops.h"

namespace mqo {

Result<NamedRows> Evaluator::EvaluateUncanonicalized(const MemoOp& op) {
  switch (op.kind) {
    case LogicalOp::kScan:
      return ScanRows(*data_, op.table, op.alias);
    case LogicalOp::kSelect: {
      MQO_ASSIGN_OR_RETURN(NamedRows in, EvaluateClass(op.children[0]));
      return FilterRows(in, op.predicate);
    }
    case LogicalOp::kJoin: {
      MQO_ASSIGN_OR_RETURN(NamedRows left, EvaluateClass(op.children[0]));
      MQO_ASSIGN_OR_RETURN(NamedRows right, EvaluateClass(op.children[1]));
      return JoinRows(left, right, op.join_predicate);
    }
    case LogicalOp::kProject: {
      MQO_ASSIGN_OR_RETURN(NamedRows in, EvaluateClass(op.children[0]));
      NamedRows out = in;
      MQO_RETURN_NOT_OK(Canonicalize(op.project_columns, &out));
      return out;
    }
    case LogicalOp::kAggregate: {
      MQO_ASSIGN_OR_RETURN(NamedRows in, EvaluateClass(op.children[0]));
      return AggregateRows(in, op.group_by, op.aggregates, op.output_renames);
    }
    case LogicalOp::kBatch:
      return Status::Unimplemented("batch root is not evaluable");
  }
  return Status::Internal("unknown operator kind");
}

Result<NamedRows> Evaluator::EvaluateOp(OpId op_id) {
  const MemoOp& op = memo_->op(op_id);
  MQO_ASSIGN_OR_RETURN(NamedRows raw, EvaluateUncanonicalized(op));
  const auto& attrs = memo_->Attributes(memo_->Find(op.owner));
  MQO_RETURN_NOT_OK(Canonicalize(attrs, &raw));
  return raw;
}

Result<NamedRows> Evaluator::EvaluateClass(EqId eq) {
  eq = memo_->Find(eq);
  auto ops = memo_->ClassOps(eq);
  if (ops.empty()) return Status::Internal("empty class");
  return EvaluateOp(ops.front());
}

Result<int> Evaluator::CheckClassConsistency(EqId eq) {
  eq = memo_->Find(eq);
  auto ops = memo_->ClassOps(eq);
  if (ops.empty()) return 0;
  Result<NamedRows> reference = EvaluateOp(ops.front());
  if (!reference.ok()) {
    if (reference.status().code() == StatusCode::kUnimplemented) return 0;
    return reference.status();
  }
  int checked = 1;
  for (size_t i = 1; i < ops.size(); ++i) {
    Result<NamedRows> other = EvaluateOp(ops[i]);
    if (!other.ok()) {
      if (other.status().code() == StatusCode::kUnimplemented) continue;
      return other.status();
    }
    const NamedRows& a = reference.ValueOrDie();
    const NamedRows& b = other.ValueOrDie();
    if (a.rows.size() != b.rows.size()) {
      return Status::Internal(
          "class E" + std::to_string(eq) + ": operator " +
          memo_->op(ops[i]).ToString(memo_) + " produced " +
          std::to_string(b.rows.size()) + " rows, expected " +
          std::to_string(a.rows.size()));
    }
    for (size_t r = 0; r < a.rows.size(); ++r) {
      for (size_t c = 0; c < a.columns.size(); ++c) {
        if (!ValueEq(a.rows[r][c], b.rows[r][c])) {
          return Status::Internal("class E" + std::to_string(eq) +
                                  ": row mismatch at operator " +
                                  memo_->op(ops[i]).ToString(memo_));
        }
      }
    }
    ++checked;
  }
  return checked;
}

Result<int> Evaluator::CheckAllClasses() {
  int total = 0;
  for (EqId cls : memo_->TopologicalClasses()) {
    if (cls == memo_->root()) continue;
    MQO_ASSIGN_OR_RETURN(int checked, CheckClassConsistency(cls));
    total += checked;
  }
  return total;
}

}  // namespace mqo
