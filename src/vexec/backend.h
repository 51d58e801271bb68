// Execution backend selection: the row-at-a-time interpreter
// (exec/plan_executor.h) or the vectorized columnar engine
// (vexec/vector_executor.h), behind one dispatch surface so callers — the
// facade, examples, benches, and the differential tests — switch engines
// with an enum.

#ifndef MQO_VEXEC_BACKEND_H_
#define MQO_VEXEC_BACKEND_H_

#include "exec/plan_executor.h"
#include "vexec/vector_executor.h"

namespace mqo {

/// Which execution engine runs physical plans.
enum class ExecBackend {
  kRow,     ///< Row-at-a-time interpreter (reference semantics).
  kVector,  ///< Batch-at-a-time columnar engine with hash-join fast path.
};

const char* ExecBackendToString(ExecBackend backend);

/// Everything one consolidated execution produced: the per-query results,
/// plus the observed cardinalities of the segments it materialized (keyed by
/// structural class fingerprint — see stats/feedback.h). Feeding the
/// feedback into a later optimization closes the optimize→execute→observe
/// loop.
struct ExecResult {
  std::vector<NamedRows> results;  ///< One per batched query, canonicalized.
  CardinalityFeedback feedback;    ///< Actual rows per materialized segment.
  /// Accounting of the run's own segment store. A run with a shared cache
  /// owns no store and reports zeros here: its traffic is counted in the
  /// session store (SharedSegmentCache::store_stats()).
  MatStoreStats store_stats;
  /// Per-segment runtime telemetry (actual rows, compute time, reads),
  /// eq-sorted; joins against the optimizer's estimates in EXPLAIN ANALYZE.
  std::vector<SegmentRuntime> segments;
  /// Materializations served from the cross-batch segment cache
  /// (ExecOptions::shared_cache) instead of being computed; 0 without one.
  int64_t cross_batch_hits = 0;
};

/// Executes a full consolidated plan (materialized nodes + batch root) with
/// the selected backend; one result per batched query. `exec` configures the
/// vectorized engine's pipelines (morsel-parallel threads for scans, join
/// build/probe and aggregation); the row interpreter is always serial and
/// ignores it.
Result<std::vector<NamedRows>> ExecuteConsolidatedWith(
    ExecBackend backend, Memo* memo, const DataSet* data,
    const ConsolidatedPlan& plan, const ExecOptions& exec = {});

/// Same, additionally surfacing the run's cardinality feedback.
Result<ExecResult> ExecuteConsolidatedResult(
    ExecBackend backend, Memo* memo, const DataSet* data,
    const ConsolidatedPlan& plan, const ExecOptions& exec = {});

/// Executes one standalone plan tree (no materialized reads) with the
/// selected backend.
Result<NamedRows> ExecutePlanWith(ExecBackend backend, Memo* memo,
                                  const DataSet* data, const PlanNodePtr& plan,
                                  const ExecOptions& exec = {});

}  // namespace mqo

#endif  // MQO_VEXEC_BACKEND_H_
