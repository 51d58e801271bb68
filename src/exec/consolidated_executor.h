// The consolidated-execution driver shared by both engines: the one place
// that computes each shared subexpression once, publishes it, and serves it
// to every reader. The row interpreter (exec/plan_executor.h) and the
// vectorized engine (vexec/vector_executor.h) derive from it and supply only
// plan execution (Execute) and the segment a compute plan produces
// (ComputeSegment).
//
// Segments live in one MatStore: the session's (ExecOptions::shared_cache's
// store) when the run belongs to a session, else a store this executor owns
// under exec.mat_budget_bytes. The executor keeps its own EqId -> handle map
// and every engine read goes through ReadSegment.
//
// ExecuteConsolidated runs one consolidated plan in three steps:
//   1. Consult the cross-batch SharedSegmentCache, if any, for every chosen
//      class by structural fingerprint (ClassFingerprint). A hit whose
//      attribute list matches the class is served without computing: the
//      run takes the cached handle and adds its planned reads
//      (ExpectedSegmentReads) to the segment's eviction weight. All hits are
//      taken before any segment is computed, so a fresh segment's Put
//      cannot push out a segment this run is about to read.
//   2. Compute the misses children-first and Put each into the store once,
//      weighted by its planned reads. With a cache, the handle is published,
//      stamped with the cache's table versions from run start, so a run
//      that read data invalidated meanwhile never publishes it as fresh.
//      Every segment's row count is recorded as CardinalityFeedback.
//   3. Execute the batch root's children; ReadMaterialized leaves and join
//      side-inputs read segments through ReadSegment. One canonicalized
//      result per query.
//
// Results are identical for every store budget and cache state. One executor
// runs one plan at a time; concurrent batches share only the cache and its
// store.

#ifndef MQO_EXEC_CONSOLIDATED_EXECUTOR_H_
#define MQO_EXEC_CONSOLIDATED_EXECUTOR_H_

#include <memory>
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
  /// attributes. ReadMaterialized leaves require the node to be materialized
  /// (see ExecuteConsolidated).
  virtual Result<NamedRows> Execute(const PlanNodePtr& plan) = 0;

  /// Executes a full consolidated plan: materializes every chosen node, then
  /// executes the batch root's children; one result per batched query.
  Result<std::vector<NamedRows>> ExecuteConsolidated(
      const ConsolidatedPlan& plan);

  /// The store this executor's segments live in (budget accounting, spill
  /// stats), for tests and benches: the session's store under a shared
  /// cache, else the executor's own.
  const MatStore& store() const { return *store_; }

  /// Observed cardinalities of the segments materialized by the most recent
  /// ExecuteConsolidated run, keyed by structural class fingerprint. Feeding
  /// these into a later optimization (StatsOptions::feedback) re-seeds its
  /// row estimates from reality.
  const CardinalityFeedback& feedback() const { return feedback_; }

  /// Per-segment runtime telemetry of the most recent ExecuteConsolidated
  /// run (actual rows, compute time, this run's reads/reloads), eq-sorted.
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

  /// Pins the segment materialized for class `eq`, counting the read (and
  /// any reload) in the run's telemetry. An invalid pin when `eq` was not
  /// materialized. A segment whose reload fails is recomputed from its
  /// compute plan and put again, so a spill I/O error costs work, not rows.
  Result<PinnedSegment> ReadSegment(EqId eq);

  Memo* memo_;
  const ExecOptions options_;

 private:
  /// One materialized class of the current run.
  struct ClassSegment {
    SegmentRef segment;
    PlanNodePtr compute_plan;
    uint64_t fingerprint = 0;
    double expected_reads = 0.0;  ///< This run's planned reads.
    double compute_ms = 0.0;      ///< 0 when served from the cache.
    int64_t reads = 0;
    int64_t reloads = 0;
  };

  /// Computes `cls`'s segment and Puts it with the reads still ahead of it.
  Status ComputeClass(ClassSegment* cls);

  const char* layer_;
  const std::string materialize_metric_;
  /// Owned only when there is no shared cache. Declared before segments_,
  /// so the handles drop before the store they point into.
  std::unique_ptr<MatStore> own_store_;
  MatStore* store_;
  std::unordered_map<EqId, ClassSegment> segments_;
  CardinalityFeedback feedback_;
  std::unordered_map<EqId, uint64_t> fingerprints_;
  int64_t cross_batch_hits_ = 0;
};

}  // namespace mqo

#endif  // MQO_EXEC_CONSOLIDATED_EXECUTOR_H_
