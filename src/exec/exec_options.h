// Execution-time knobs of one consolidated run, for either engine.
//
// ExecOptions travels from the facade (MqoOptions::exec) through the backend
// dispatch (vexec/backend.h) into the shared consolidated-execution driver
// (exec/consolidated_executor.h) and the engine derived from it. The
// scheduling knobs feed the pipeline driver (storage/pipeline.h) of the
// vectorized engine; the row interpreter is always serial and ignores them.
// The memory-governance knobs configure the run's own materialized-segment
// store (storage/mat_store.h); with a `shared_cache` — the cross-batch cache
// the driver consults and publishes to — the run owns no store and its
// segments live in the cache's, under the session's budget
// (MqoOptions::shared_cache_budget_bytes). A budget lives only on a store:
// the optimizer never sees one, so plans are the same for every budget.
// Results are identical for every setting — threading, spilling and caching
// are performance decisions, never semantic ones.

#ifndef MQO_EXEC_EXEC_OPTIONS_H_
#define MQO_EXEC_EXEC_OPTIONS_H_

#include "storage/mat_store.h"
#include "storage/pipeline.h"

namespace mqo {

class ObsContext;
class SharedSegmentCache;

/// Execution-time knobs: the pipeline driver's scheduling (`num_threads`
/// worker threads, 1 = serial; `morsel_rows` per scheduling granule) plus
/// the materialized-segment store's memory governance. Results are identical
/// for every setting.
struct ExecOptions : PipelineOptions {
  /// Resident-byte budget of the executor's own MatStore (unused with a
  /// shared_cache); 0 = unlimited. The facade fills an unset one from
  /// MQO_MAT_BUDGET_BYTES.
  size_t mat_budget_bytes = 0;
  /// Spill directory for evicted segments; empty = a unique temp directory.
  std::string mat_spill_dir;
  /// Observability sink (obs/obs.h): pipeline/operator spans, store events,
  /// executor metrics. Null = off; execution is unaffected either way.
  ObsContext* obs = nullptr;
  /// Cross-batch semantic segment cache (storage/segment_cache.h), shared
  /// across a session's concurrent batches; the consult/publish contract is
  /// on exec/consolidated_executor.h. When set, the run's segments live in
  /// the cache's store. Null = per-run materialization only.
  /// Results are identical either way — the cache can only serve a segment
  /// whose fingerprint and base-table versions both match.
  SharedSegmentCache* shared_cache = nullptr;

  /// The pipeline-driver view of these knobs.
  const PipelineOptions& pipeline() const { return *this; }

  /// The store configuration these knobs describe.
  MatStoreOptions mat_store() const {
    MatStoreOptions options;
    options.budget_bytes = mat_budget_bytes;
    options.spill_dir = mat_spill_dir;
    options.obs = obs;
    return options;
  }
};

}  // namespace mqo

#endif  // MQO_EXEC_EXEC_OPTIONS_H_
