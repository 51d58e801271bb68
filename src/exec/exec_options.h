// Execution-time knobs of one consolidated run, for either engine.
//
// ExecOptions travels from the facade (MqoOptions::exec) through the backend
// dispatch (vexec/backend.h) into the shared consolidated-execution driver
// (exec/consolidated_executor.h) and the engine derived from it. The
// scheduling knobs feed the pipeline driver (storage/pipeline.h) of the
// vectorized engine; the row interpreter is always serial and ignores them.
// The memory-governance knobs configure the run's materialized-segment
// store (storage/mat_store.h), and `shared_cache` is the cross-batch cache
// the driver consults and publishes to. Results are identical for every
// setting — threading, spilling and caching are performance decisions,
// never semantic ones.

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
  /// Resident-byte budget of the executor's MatStore; 0 = unlimited.
  size_t mat_budget_bytes = 0;
  /// Spill directory for evicted segments; empty = a unique temp directory.
  std::string mat_spill_dir;
  /// Bloom-filter pushdown (sideways information passing): hash-join builds
  /// publish a Bloom filter over their keys, and probe-side scan pipelines
  /// drop rows (and skip whole morsels via zone min/max) that cannot match
  /// before materializing chunks. Conservative — never a false negative —
  /// so results are identical with it on or off; off exists for benching.
  bool bloom_filters = true;
  /// Zone-map scan skipping: scan pipelines consult a column's persisted
  /// per-zone min/max to skip whole zones for any constant numeric filter —
  /// no join upstream required. Conservative (a pruned zone contains no
  /// passing row), so results are identical with it on or off.
  bool zone_maps = true;
  /// Build-time numeric compression of *materialized segments* (base tables
  /// are governed by ColumnStore build flags): FOR-encode int64 columns when
  /// that shrinks them and attach zone maps, so MatStore budget accounting
  /// sees encoded bytes and segment reads can zone-skip.
  bool numeric_compression = true;
  /// Observability sink (obs/obs.h): pipeline/operator spans, store events,
  /// executor metrics. Null = off; execution is unaffected either way.
  ObsContext* obs = nullptr;
  /// Cross-batch semantic segment cache (storage/segment_cache.h), shared
  /// across a session's concurrent batches; the consult/publish contract is
  /// on exec/consolidated_executor.h. Null = per-run materialization only.
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
