// Vectorized physical plan executor: the columnar counterpart of
// exec/plan_executor.h, and the default engine.
//
// Executes the optimizer's plan trees by compiling each plan segment
// between pipeline breakers into a VecPipeline (vexec/pipeline.h) and
// running it on the shared pipeline driver: scans, filters, join probes and
// aggregations all go morsel-parallel under ExecOptions::num_threads, with
// thread-local sink states and a deterministic merge. The pipeline is the
// engine's only filter, join and aggregation implementation: BNL, index and
// merge joins all run as the same hash probe, and sort enforcers stream
// through unsorted (bag semantics).
// Breakers are handled between pipelines: a join's build side executes
// first and freezes into a shared read-only JoinHashTable (a CSR bucket
// directory, built one worker per hash partition), once per use. The
// exception is a join inner that is a base relation outside the plan tree
// (a BNL or index-NL side input that is not materialized): it probes the
// table's persistent join index (vector_ops.h: BaseJoinIndex), built on the
// first such read of the DataSet and shared by every later query, batch
// and session client. It plays the part of the clustered index that the
// cost model's index nested-loop join assumes. Its columns are the full-width base view;
// the probe gathers only the ones some operator above reads.
//
// Consolidated plans run through the shared driver
// (exec/consolidated_executor.h), which owns materialization, the
// cross-batch cache consult/publish, feedback and segment telemetry. This
// engine supplies plan execution and the segment format: a materialized
// node's compute pipeline runs once and the sink's merged batch (FOR-encoded
// with zone maps) becomes the segment.
// ReadMaterialized leaves and join side-inputs read segments zero-copy and
// pin them for the lifetime of the pipeline consuming them; a side input
// counts one segment read whether it finds a segment or falls back to the
// base relation's index.
//
// Column pruning is need-driven (vexec/column_need.h): every execution call
// carries the set of columns its consumer reads, pushed top-down through the
// plan, so inside a plan every pipeline, join and breaker emits only the
// columns some operator above it reads. Query roots keep their full class
// attributes, so canonicalized results do not depend on how they were
// computed. A materialized segment holds the union of what its readers read
// (AddSegmentReads, before any segment is computed), so it is computed,
// encoded, stored and spilled with only those columns; its fingerprint
// still names the class, and a cached segment serves any later reader whose
// need it covers. The two engines are directly comparable; the
// differential suite asserts they agree on every workload, materialization
// choice, and thread count, which makes this engine an independent second
// witness of the MQO sharing semantics.

#ifndef MQO_VEXEC_VECTOR_EXECUTOR_H_
#define MQO_VEXEC_VECTOR_EXECUTOR_H_

#include "exec/consolidated_executor.h"
#include "vexec/pipeline.h"
#include "vexec/vector_ops.h"

namespace mqo {

/// Executes physical plans against a dataset, batch-at-a-time.
class VectorPlanExecutor final : public ConsolidatedExecutor {
 public:
  VectorPlanExecutor(Memo* memo, const DataSet* data,
                     const ExecOptions& options = {})
      : ConsolidatedExecutor(memo, options, "vexec"), data_(data) {}

  Result<NamedRows> Execute(const PlanNodePtr& plan) override;

 private:
  Status AddSegmentReads(const PlanNodePtr& plan, const ColumnNeed& need,
                         const std::unordered_set<EqId>& materialized,
                         std::unordered_map<EqId, ColumnNeed>* needs) override;
  Result<ColumnBatch> ComputeSegment(const PlanNodePtr& compute_plan,
                                     const ColumnNeed& need) override;
  /// Plan execution to a batch of the class attributes of `plan` that
  /// `need` names, in class-attribute order. An aggregate runs as the sink
  /// of the pipeline under it, anything else as a pipeline rooted at
  /// `plan`; batch roots fail (they execute via ExecuteConsolidated).
  Result<ColumnBatch> ExecuteBatch(const PlanNodePtr& plan,
                                   const ColumnNeed& need);
  /// Compiles the pipeline rooted at `plan` (descending through filters,
  /// projects, sorts and join probes until a source or breaker) and runs it.
  /// `agg`, when set, installs an aggregate sink fed by the chain under the
  /// aggregate node, and the sink's inputs replace `need`.
  Result<ColumnBatch> RunPipelineFor(const PlanNodePtr& plan,
                                     const MemoOp* agg, ColumnNeed need);
  /// The scan operator of base-relation class `eq`; Internal for any other
  /// class.
  Result<const MemoOp*> BaseScanOf(EqId eq);
  /// Scan of base-relation class `eq` (an index scan's input), in
  /// class-attribute order; Internal for any other class.
  Result<ColumnBatch> BaseRelationBatch(EqId eq);
  /// Base-table scan: a zero-copy TableReader view (no conversion, no cache).
  Result<ColumnBatch> Scan(const std::string& table, const std::string& alias);

  const DataSet* data_;
};

}  // namespace mqo

#endif  // MQO_VEXEC_VECTOR_EXECUTOR_H_
