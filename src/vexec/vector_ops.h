// Vectorized operator kernels over ColumnBatch, mirroring the row engine's
// bag semantics (exec/row_ops.h) batch-at-a-time: scans take zero-copy
// column views of native columnar storage, filters refine selection vectors
// with typed comparison loops (morsel-parallel when asked), equi-joins run a
// build/probe hash join (the fast path the row engine's nested loops lack),
// merge joins sort-merge argsorted inputs, and aggregation groups through a
// hash table into columnar fold states.
//
// Every kernel must be bag-equivalent to its row_ops counterpart — the
// differential suite (tests/vexec_test.cc) enforces this on every workload
// and every thread count.

#ifndef MQO_VEXEC_VECTOR_OPS_H_
#define MQO_VEXEC_VECTOR_OPS_H_

#include "algebra/logical_expr.h"
#include "exec/dataset.h"
#include "storage/column_batch.h"
#include "storage/morsel.h"

namespace mqo {

/// Refines rows [begin, end) of `in` through every conjunct (`col_idx` maps
/// conjunct -> column, pre-resolved), leaving the surviving row positions
/// (ascending) in `sel`. The per-range filter primitive shared by
/// FilterBatch and the pipeline layer; thread-safe over disjoint ranges.
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

/// Rows satisfying every conjunct, via per-conjunct selection refinement.
/// With `num_threads > 1` the scan is split into fixed-size morsels filtered
/// by a std::thread pool into per-morsel selection vectors and merged in
/// morsel order — deterministically identical to the serial result.
Result<ColumnBatch> FilterBatch(const ColumnBatch& in,
                                const Predicate& predicate,
                                int num_threads = 1,
                                size_t morsel_rows = kAdaptiveMorselRows);

/// Equijoin: builds a hash table on `right` (one worker per hash partition
/// when `num_threads > 1`), probes with `left` morsel-parallel, and gathers the
/// matching index pairs. Empty predicates degrade to the cross product (as
/// the row engine's nested loops do). Fails with Unimplemented on duplicate
/// output columns, like JoinRows. Results are identical for every thread
/// count.
Result<ColumnBatch> HashJoinBatch(const ColumnBatch& left,
                                  const ColumnBatch& right,
                                  const JoinPredicate& predicate,
                                  int num_threads = 1,
                                  size_t morsel_rows = kAdaptiveMorselRows);

/// Equijoin by argsorting both sides on the key columns and merging equal-key
/// runs. Bag-equal to HashJoinBatch; used for kMergeJoin plans. Keys are
/// decoded once into flat arrays (strings as ranks in one dictionary order
/// shared by both sides); the output order is that of a stable sort over
/// the cell comparators (ColumnVector::CellLess).
Result<ColumnBatch> MergeJoinBatch(const ColumnBatch& left,
                                   const ColumnBatch& right,
                                   const JoinPredicate& predicate);

/// Stable sort by `order` (most-significant first), on keys decoded once as
/// MergeJoinBatch does. Order columns missing from the batch are ignored —
/// sorting never changes the bag.
Result<ColumnBatch> SortBatch(const ColumnBatch& in, const SortOrder& order);

/// Grouped aggregation with hash grouping and columnar fold states; matches
/// AggregateRows (including the empty-input scalar identity row and the
/// aggregate-subsumption renames).
Result<ColumnBatch> AggregateBatch(const ColumnBatch& in,
                                   const std::vector<ColumnRef>& group_by,
                                   const std::vector<AggExpr>& aggs,
                                   const std::vector<std::string>& renames);

}  // namespace mqo

#endif  // MQO_VEXEC_VECTOR_OPS_H_
