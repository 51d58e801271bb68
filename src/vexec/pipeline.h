// Compiled execution pipelines of the vectorized engine.
//
// VectorPlanExecutor compiles each plan-tree segment between pipeline
// breakers into a VecPipeline: a source batch, fused source filters, a chain
// of chunk operators (filter / project / hash-join probe), and a sink
// (collect or aggregate). The shared pipeline driver (storage/pipeline.h)
// then runs the chain morsel-parallel: every worker folds the morsels it
// claims into its thread-local sink state, and RunVecPipeline merges the
// states deterministically — collected chunks concatenate in morsel order,
// aggregation states merge commutatively and emit groups by first
// occurrence. Breakers (join builds, aggregations, materialized segments)
// sit *between* pipelines: a join's build side is executed first and frozen
// into a shared read-only JoinHashTable that probe workers hit
// concurrently.
//
// Chunk operators are immutable after compilation and share no mutable
// state, so the same op chain runs on every worker without locks.

#ifndef MQO_VEXEC_PIPELINE_H_
#define MQO_VEXEC_PIPELINE_H_

#include <atomic>
#include <memory>

#include "exec/exec_options.h"
#include "vexec/agg_state.h"
#include "vexec/join_table.h"

namespace mqo {

class MetricsRegistry;

/// One streaming operator of a compiled pipeline: transforms a chunk (the
/// materialized rows one morsel produced) into the next chunk. Process is
/// const and thread-safe.
class PipelineOp {
 public:
  virtual ~PipelineOp() = default;
  virtual Result<ColumnBatch> Process(ColumnBatch chunk) const = 0;
  /// Schema of the chunks this operator emits.
  virtual const std::vector<ColumnRef>& output_names() const = 0;
  /// Short operator name for trace events ("filter", "project", "probe").
  virtual const char* name() const = 0;
  /// Publishes counters accumulated since the last flush. Called once per
  /// pipeline run, only when metrics are enabled — per-row work must never
  /// touch the registry.
  virtual void FlushMetrics(MetricsRegistry* metrics) const { (void)metrics; }
};

/// Refines a chunk through comparison conjuncts (indices pre-resolved).
class FilterChunkOp : public PipelineOp {
 public:
  FilterChunkOp(std::vector<Comparison> conjuncts, std::vector<int> col_idx,
                std::vector<ColumnRef> names)
      : conjuncts_(std::move(conjuncts)),
        col_idx_(std::move(col_idx)),
        names_(std::move(names)) {}
  Result<ColumnBatch> Process(ColumnBatch chunk) const override;
  const std::vector<ColumnRef>& output_names() const override {
    return names_;
  }
  const char* name() const override { return "filter"; }

 private:
  std::vector<Comparison> conjuncts_;
  std::vector<int> col_idx_;
  std::vector<ColumnRef> names_;
};

/// Narrows a chunk to a column subset (zero-copy: COW column handles).
class ProjectChunkOp : public PipelineOp {
 public:
  ProjectChunkOp(std::vector<int> col_idx, std::vector<ColumnRef> names)
      : col_idx_(std::move(col_idx)), names_(std::move(names)) {}
  Result<ColumnBatch> Process(ColumnBatch chunk) const override;
  const std::vector<ColumnRef>& output_names() const override {
    return names_;
  }
  const char* name() const override { return "project"; }

 private:
  std::vector<int> col_idx_;
  std::vector<ColumnRef> names_;
};

/// Probes a shared read-only JoinHashTable with each chunk row and emits the
/// joined chunk: the probe-side columns some operator above reads, then the
/// build-side columns it reads. Key columns reach the probe and the build
/// for the match, but are gathered into the output only when read above.
/// The op owns the dictionary remaps of its probes, so a table shared
/// beyond this pipeline keeps no probe dictionary alive after it.
class ProbeChunkOp : public PipelineOp {
 public:
  ProbeChunkOp(std::shared_ptr<const JoinHashTable> table,
               std::vector<int> probe_key_idx, std::vector<int> left_out_idx,
               std::vector<int> build_out_idx, std::vector<ColumnRef> out_names)
      : table_(std::move(table)),
        probe_key_idx_(std::move(probe_key_idx)),
        left_out_idx_(std::move(left_out_idx)),
        build_out_idx_(std::move(build_out_idx)),
        out_names_(std::move(out_names)) {}
  Result<ColumnBatch> Process(ColumnBatch chunk) const override;
  const std::vector<ColumnRef>& output_names() const override {
    return out_names_;
  }
  const char* name() const override { return "probe"; }
  void FlushMetrics(MetricsRegistry* metrics) const override;

 private:
  std::shared_ptr<const JoinHashTable> table_;
  std::vector<int> probe_key_idx_;  ///< Key columns in the incoming chunk.
  std::vector<int> left_out_idx_;   ///< Chunk columns kept in the output.
  std::vector<int> build_out_idx_;  ///< Build columns kept in the output.
  std::vector<ColumnRef> out_names_;
  /// Rows probed through dictionary-code kernels (obs: vexec.dict_hits),
  /// accumulated per chunk — never per row — and drained by FlushMetrics.
  mutable std::atomic<int64_t> dict_rows_{0};
  /// Probe-code→build-code maps of this op's probes (vexec.dict_remap).
  mutable DictRemapCache remaps_;
  /// Remap-build count already reported, so FlushMetrics emits deltas.
  mutable std::atomic<int64_t> remap_reported_{0};
};

/// A compiled pipeline: source -> fused filters -> op chain -> sink.
struct VecPipeline {
  /// Trace label ("q3", "mat E17", ...); empty = unnamed. Only read when
  /// tracing is on.
  std::string label;

  /// The source batch (a zero-copy scan view, a materialized segment, or a
  /// breaker's output).
  ColumnBatch source;

  /// Filters fused into the source scan: evaluated against `source` row
  /// ranges directly, before any column is materialized into a chunk.
  std::vector<Comparison> source_filters;
  std::vector<int> source_filter_idx;  ///< Columns in `source`.

  /// Source columns materialized into chunks (pruned to what the chain and
  /// the final projection actually read).
  std::vector<int> keep_idx;
  std::vector<ColumnRef> chunk_names;

  /// Bloom-filter pushdown from a downstream hash-join build (sideways
  /// information passing): rows whose join-key hash the filter rejects are
  /// dropped before chunk materialization, and whole morsels are skipped
  /// when the filter's zone min/max excludes the morsel's key range. The
  /// refinement is a pure per-row predicate, so the surviving row set — and
  /// every traced operator count downstream — is identical for every thread
  /// count. Null = no pushdown.
  std::shared_ptr<const JoinBloomFilter> bloom;
  std::vector<int> bloom_key_idx;  ///< Join-key columns in `source`.

  std::vector<std::unique_ptr<PipelineOp>> ops;

  /// Sink selection: an aggregate sink folds chunks into thread-local
  /// AggAccumulators; otherwise chunks are collected and concatenated in
  /// morsel order.
  bool aggregate = false;
  std::vector<ColumnRef> agg_group_by;
  std::vector<AggExpr> agg_aggs;
  std::vector<std::string> agg_renames;
  std::vector<int> agg_group_idx;  ///< Into the final chunk schema.
  std::vector<int> agg_arg_idx;    ///< -1 = COUNT(*).

  /// Schema of the chunks reaching the sink.
  const std::vector<ColumnRef>& final_names() const {
    return ops.empty() ? chunk_names : ops.back()->output_names();
  }
};

/// Runs a compiled pipeline morsel-parallel and merges the per-worker sink
/// states deterministically. The result is identical for every thread
/// count. A pipeline with no filters, no ops, and a collect sink returns a
/// zero-copy column projection of the source.
Result<ColumnBatch> RunVecPipeline(const VecPipeline& pipeline,
                                   const ExecOptions& options);

}  // namespace mqo

#endif  // MQO_VEXEC_PIPELINE_H_
