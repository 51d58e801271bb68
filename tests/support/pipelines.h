// One-operator vector pipelines for tests and benches.
//
// The vector engine has one filter, join and aggregation implementation:
// the compiled pipeline (vexec/pipeline.h) that VectorPlanExecutor builds
// and RunVecPipeline runs. These builders set up the smallest VecPipeline
// around one such operator over a given batch, so oracle tests, unit tests
// and benches check and time exactly the code the engine runs, at any
// ExecOptions (threads, morsel size, tracing).

#ifndef MQO_TESTS_SUPPORT_PIPELINES_H_
#define MQO_TESTS_SUPPORT_PIPELINES_H_

#include "vexec/pipeline.h"

namespace mqo {

/// `in` through `predicate` as fused source filters, every column kept:
/// the rows satisfying every conjunct, in input order. Internal when a
/// conjunct names a column `in` lacks.
Result<ColumnBatch> RunFilterPipeline(const ColumnBatch& in,
                                      const Predicate& predicate,
                                      const ExecOptions& exec);

/// The equi-join `left` ⋈ `right` as a probe pipeline: `left` streams
/// through one ProbeChunkOp over a JoinHashTable built on `right`, and the
/// output holds every left column, then every right column. With `bloom`,
/// the build's Bloom filter is pushed into the probe source. Fails like
/// ResolveJoinSpec (Unimplemented on overlapping aliases).
Result<ColumnBatch> RunProbePipeline(const ColumnBatch& left,
                                     const ColumnBatch& right,
                                     const JoinPredicate& predicate,
                                     const ExecOptions& exec,
                                     bool bloom = false);

/// The grouped aggregation of `in` as a pipeline aggregate sink: groups in
/// first-occurrence order, like AggregateRows (an empty scalar aggregation
/// yields its identity row). Internal when a group key or argument names a
/// column `in` lacks.
Result<ColumnBatch> RunAggPipeline(const ColumnBatch& in,
                                   const std::vector<ColumnRef>& group_by,
                                   const std::vector<AggExpr>& aggs,
                                   const ExecOptions& exec);

}  // namespace mqo

#endif  // MQO_TESTS_SUPPORT_PIPELINES_H_
