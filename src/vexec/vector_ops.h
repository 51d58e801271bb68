// The vector engine's batch kernels outside the compiled pipeline
// (vexec/pipeline.h): the per-range filter primitive and zone-map test that
// pipeline sources run, zero-copy base-table scans, and the base tables'
// persistent join indexes. Filters, joins and
// aggregation have no standalone kernel here: VectorPlanExecutor compiles
// them into a VecPipeline, and tests and benches build the same pipelines.
//
// Every kernel must be bag-equivalent to its row_ops counterpart — the
// differential suite (tests/vexec_test.cc) enforces this on every workload
// and every thread count.

#ifndef MQO_VEXEC_VECTOR_OPS_H_
#define MQO_VEXEC_VECTOR_OPS_H_

#include "algebra/logical_expr.h"
#include "exec/dataset.h"
#include "storage/column_batch.h"
#include "vexec/join_table.h"

namespace mqo {

/// Refines rows [begin, end) of `in` through every conjunct (`col_idx` maps
/// conjunct -> column, pre-resolved), leaving the surviving row positions
/// (ascending) in `sel`. The pipeline's per-range filter primitive (fused
/// source filters and FilterChunkOp); thread-safe over disjoint ranges.
/// FOR-encoded int64 columns are compared in the code domain (the literal
/// rewritten against each block's reference, packed deltas tested without
/// decoding); when `compressed_cmp_rows` is non-null it accumulates the
/// rows so compared — a per-block count, so the total is identical at every
/// thread count.
void FilterRangeInto(const ColumnBatch& in,
                     const std::vector<Comparison>& conjuncts,
                     const std::vector<int>& col_idx, uint32_t begin,
                     uint32_t end, SelVector* sel,
                     int64_t* compressed_cmp_rows = nullptr);

/// True iff no value in [zmin, zmax] can satisfy `x op lit` — the zone-map
/// pruning test. Conservative: false never hides a passing row.
bool ZoneExcludes(double zmin, double zmax, CompareOp op, double lit);

/// Base-table columns re-qualified under a scan alias: a zero-copy view of
/// the table's ColumnStore (COW payloads shared, nothing converted).
Result<ColumnBatch> ScanBatch(const DataSet& data, const std::string& table,
                              const std::string& alias);

/// The persistent join index of base table `table` on `key_columns`
/// (unqualified names, in condition order): a JoinHashTable over the
/// table's full-width zero-copy scan view, columns in store order and
/// qualified under the table name. Built on first use (one
/// `vexec.hash_builds` event in `metrics`) and memoized in `data`'s index
/// memo for every later query, batch and session client; two callers that
/// both miss may each build it, and the first insert wins. NotFound for an
/// unknown table or key column.
Result<std::shared_ptr<const JoinHashTable>> BaseJoinIndex(
    const DataSet& data, const std::string& table,
    const std::vector<std::string>& key_columns,
    const PipelineOptions& options, MetricsRegistry* metrics);

}  // namespace mqo

#endif  // MQO_VEXEC_VECTOR_OPS_H_
