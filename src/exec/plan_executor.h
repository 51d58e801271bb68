// Row-at-a-time physical plan interpreter: the reference engine.
//
// Executes the optimizer's plan trees with bag semantics, one operator at a
// time over NamedRows. It is the semantic reference the vectorized engine
// (vexec/vector_executor.h) is differentially checked against: for any
// materialized set, a consolidated plan must produce exactly the results of
// evaluating each query class directly, on both engines.
//
// Consolidated plans run through the shared driver
// (exec/consolidated_executor.h), which owns materialization, the
// cross-batch cache consult/publish, feedback and segment telemetry. This
// engine supplies only plan execution: materialized segments are stored
// columnar, so it converts at the row/column boundary on every store access,
// pinning the segment for the duration of the conversion.

#ifndef MQO_EXEC_PLAN_EXECUTOR_H_
#define MQO_EXEC_PLAN_EXECUTOR_H_

#include "exec/consolidated_executor.h"
#include "exec/evaluator.h"

namespace mqo {

/// Executes physical plans against a dataset. The interpreter itself is
/// always serial; `options` only configures the materialized-segment store,
/// the cross-batch cache and the observability sink.
class PlanExecutor final : public ConsolidatedExecutor {
 public:
  PlanExecutor(Memo* memo, const DataSet* data,
               const ExecOptions& options = {})
      : ConsolidatedExecutor(memo, options, "exec"),
        data_(data),
        evaluator_(memo, data) {}

  Result<NamedRows> Execute(const PlanNodePtr& plan) override;

 private:
  Result<ColumnBatch> ComputeSegment(const PlanNodePtr& compute_plan) override;
  Result<NamedRows> ExecuteUncanonicalized(const PlanNodePtr& plan);
  /// Input rows for a join's inner side that is not a plan child (base
  /// relation or materialized node, rescanned by BNL/index probes).
  Result<NamedRows> SideInput(EqId eq);

  const DataSet* data_;
  Evaluator evaluator_;
};

}  // namespace mqo

#endif  // MQO_EXEC_PLAN_EXECUTOR_H_
