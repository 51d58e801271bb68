// The consolidated-execution driver shared by both engines: the one place
// that computes each shared subexpression once, publishes it, and serves it
// to every reader. The row interpreter (exec/plan_executor.h) and the
// vectorized engine (vexec/vector_executor.h) derive from it and supply only
// plan execution (Execute) and the segment a compute plan produces
// (ComputeSegment).
//
// ExecuteConsolidated runs one consolidated plan in three steps:
//   1. Seed the run's MatStore with each materialized class's expected reads
//      (ExpectedSegmentReads), so eviction weighs segments by the reads still
//      ahead of them before any segment lands.
//   2. Materialize the chosen classes children-first. Each class is
//      fingerprinted (ClassFingerprint) and looked up in the cross-batch
//      SharedSegmentCache (ExecOptions::shared_cache), if any; a hit with the
//      class's attribute list is served without computing. A miss is
//      computed and published, stamped with the cache's table versions from
//      run start, so a run that read data invalidated meanwhile never
//      publishes it as fresh. Every segment's row count is recorded as
//      CardinalityFeedback, and the segment is Put under its class id.
//   3. Execute the batch root's children; ReadMaterialized leaves and join
//      side-inputs read the store. One canonicalized result per query.
//
// Results are identical for every store budget and cache state. One executor
// runs one plan at a time; concurrent batches share only the cache.

#ifndef MQO_EXEC_CONSOLIDATED_EXECUTOR_H_
#define MQO_EXEC_CONSOLIDATED_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "exec/exec_options.h"
#include "obs/explain.h"
#include "optimizer/batch_optimizer.h"
#include "stats/feedback.h"
#include "storage/mat_store.h"
#include "storage/segment_cache.h"

namespace mqo {

/// Runs consolidated MQO plans: materialization, the cross-batch cache
/// consult/publish, feedback and segment telemetry. Engines derive from it
/// and implement Execute and ComputeSegment.
class ConsolidatedExecutor {
 public:
  virtual ~ConsolidatedExecutor() = default;
  ConsolidatedExecutor(const ConsolidatedExecutor&) = delete;
  ConsolidatedExecutor& operator=(const ConsolidatedExecutor&) = delete;

  /// Executes one plan tree; the result is canonicalized to the plan's class
  /// attributes. ReadMaterialized leaves require the node to be present in
  /// the store (see ExecuteConsolidated).
  virtual Result<NamedRows> Execute(const PlanNodePtr& plan) = 0;

  /// Executes a full consolidated plan: materializes every chosen node, then
  /// executes the batch root's children; one result per batched query.
  Result<std::vector<NamedRows>> ExecuteConsolidated(
      const ConsolidatedPlan& plan);

  /// This executor's materialized-segment store (budget accounting, spill
  /// stats), for tests and benches.
  const MatStore& store() const { return store_; }

  /// Observed cardinalities of the segments materialized by the most recent
  /// ExecuteConsolidated run, keyed by structural class fingerprint. Feeding
  /// these into a later optimization (StatsOptions::feedback) re-seeds its
  /// row estimates from reality.
  const CardinalityFeedback& feedback() const { return feedback_; }

  /// Per-segment runtime telemetry of the most recent ExecuteConsolidated
  /// run (actual rows, compute time, store reads/reloads), eq-sorted.
  std::vector<SegmentRuntime> SegmentRuntimes() const;

  /// Materializations of the most recent ExecuteConsolidated run served
  /// from the cross-batch segment cache instead of being computed.
  int64_t cross_batch_hits() const { return cross_batch_hits_; }

 protected:
  /// `layer` ("exec" or "vexec") names the engine's trace category and
  /// prefixes its materialization metric (`<layer>.materialize_ms`).
  ConsolidatedExecutor(Memo* memo, const ExecOptions& options,
                       const char* layer);

  /// Computes the segment of `compute_plan`'s class, in the form the store
  /// keeps it (columnar, projected onto the class attributes).
  virtual Result<ColumnBatch> ComputeSegment(
      const PlanNodePtr& compute_plan) = 0;

  Memo* memo_;
  const ExecOptions options_;
  MatStore store_;

 private:
  /// Serves class `eq` from the cross-batch cache or computes it, records
  /// its feedback, publishes it — stamped with `read_versions`, the cache's
  /// table versions at run start, and weighted by the plan's
  /// `expected_reads` — and stores it under `eq`.
  Status MaterializeNode(
      EqId eq, const PlanNodePtr& compute_plan,
      const TableVersions& read_versions,
      const std::unordered_map<EqId, double>& expected_reads);

  const char* layer_;
  const std::string materialize_metric_;
  CardinalityFeedback feedback_;
  std::unordered_map<EqId, uint64_t> fingerprints_;
  std::unordered_map<EqId, double> compute_ms_;  ///< Materialization times.
  int64_t cross_batch_hits_ = 0;
};

}  // namespace mqo

#endif  // MQO_EXEC_CONSOLIDATED_EXECUTOR_H_
