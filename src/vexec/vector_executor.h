// Vectorized physical plan executor: the columnar counterpart of
// exec/plan_executor.h, and the default engine.
//
// Executes the optimizer's plan trees by compiling each plan segment
// between pipeline breakers into a VecPipeline (vexec/pipeline.h) and
// running it on the shared pipeline driver: scans, filters, join probes and
// aggregations all go morsel-parallel under ExecOptions::num_threads, with
// thread-local sink states and a deterministic merge. Breakers are handled
// between pipelines: a hash join's build side executes first and freezes
// into a shared read-only JoinHashTable (a CSR bucket directory, built one
// worker per hash partition); merge joins keep the independently-implemented
// sort-merge path.
//
// Consolidated plans run through the shared driver
// (exec/consolidated_executor.h), which owns materialization, the
// cross-batch cache consult/publish, feedback and segment telemetry. This
// engine supplies plan execution and the segment format: a materialized
// node's compute pipeline runs once and the sink's merged batch (FOR-encoded
// with zone maps when numeric compression is on) becomes the segment.
// ReadMaterialized leaves and join side-inputs read segments zero-copy and
// pin them for the lifetime of the pipeline consuming them.
//
// Column pruning is need-driven: every execution call carries the set of
// columns its consumer reads (ColumnNeed), pushed top-down through the plan.
// An aggregate sink needs its group keys and arguments, a filter adds its
// conjunct columns, a project resets the need to its column list, and a
// join splits it: each input executes with (need ∩ its attributes) ∪ its
// join keys. So inside a plan every pipeline, join and breaker emits only
// the columns some operator above it reads. Query roots and materialized
// segments keep their full class attributes: they are executed with the
// class attributes as their need, so segment schemas, fingerprints and
// canonicalized results do not depend on who reads them. The two engines
// are therefore directly comparable; the differential suite asserts they
// agree on every workload, materialization choice, and thread count, which
// makes this engine an independent second witness of the MQO sharing
// semantics.

#ifndef MQO_VEXEC_VECTOR_EXECUTOR_H_
#define MQO_VEXEC_VECTOR_EXECUTOR_H_

#include <set>

#include "exec/consolidated_executor.h"
#include "vexec/pipeline.h"
#include "vexec/vector_ops.h"

namespace mqo {

/// The columns an operator's consumers read.
using ColumnNeed = std::set<ColumnRef>;

/// Executes physical plans against a dataset, batch-at-a-time.
class VectorPlanExecutor final : public ConsolidatedExecutor {
 public:
  VectorPlanExecutor(Memo* memo, const DataSet* data,
                     const ExecOptions& options = {})
      : ConsolidatedExecutor(memo, options, "vexec"), data_(data) {}

  Result<NamedRows> Execute(const PlanNodePtr& plan) override;

 private:
  Result<ColumnBatch> ComputeSegment(const PlanNodePtr& compute_plan) override;
  /// Plan execution to a batch of the class attributes of `plan` that
  /// `need` names, in class-attribute order.
  Result<ColumnBatch> ExecuteBatch(const PlanNodePtr& plan,
                                   const ColumnNeed& need);
  /// Full width: all class attributes (query roots and segments).
  Result<ColumnBatch> ExecuteBatch(const PlanNodePtr& plan);
  /// Breaker dispatch: merge joins and batch roots directly, everything else
  /// through pipeline compilation. Emits at least the columns of `need`.
  Result<ColumnBatch> ExecuteBatchRaw(const PlanNodePtr& plan,
                                      const ColumnNeed& need);
  /// Compiles the pipeline rooted at `plan` (descending through filters,
  /// projects, sorts and join probes until a source or breaker) and runs it.
  /// `agg`, when set, installs an aggregate sink fed by the chain under the
  /// aggregate node, and the sink's inputs replace `need`.
  Result<ColumnBatch> RunPipelineFor(const PlanNodePtr& plan,
                                     const MemoOp* agg, ColumnNeed need);
  /// Logical evaluation of a class (first live operator), for index-scan
  /// inputs and join side-inputs that are not plan children.
  Result<ColumnBatch> EvaluateClassBatch(EqId eq);
  Result<ColumnBatch> EvaluateOpBatch(const MemoOp& op);
  /// Join inner side not in the plan tree: materialized store first, then
  /// logical evaluation (mirrors PlanExecutor::SideInput), projected
  /// zero-copy onto the attributes `need` names.
  Result<ColumnBatch> SideInputBatch(EqId eq, const ColumnNeed& need);
  /// Base-table scan: a zero-copy TableReader view (no conversion, no cache).
  Result<ColumnBatch> Scan(const std::string& table, const std::string& alias);
  /// Filter with this executor's thread/morsel configuration.
  Result<ColumnBatch> Filter(const ColumnBatch& in, const Predicate& predicate);

  const DataSet* data_;
};

}  // namespace mqo

#endif  // MQO_VEXEC_VECTOR_EXECUTOR_H_
