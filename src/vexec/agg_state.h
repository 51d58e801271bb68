// Thread-local aggregation state for pipeline sinks.
//
// Each pipeline worker folds its chunks into a private AggAccumulator —
// hash-grouped keys plus per-(group, aggregate) scalar fold cells — and the
// sink merges the per-worker accumulators once all morsels are consumed.
// The merge is commutative (counts and sums add; MIN/MAX compare values),
// so it is independent of which worker saw which morsel; output order is
// made deterministic by tracking each group's first-occurrence position in
// the pipeline's morsel order and emitting groups in that order, which is
// exactly the serial engine's first-appearance group order. Ties in MIN/MAX
// (equal values) keep the earliest position, again matching the serial
// fold.
//
// Groups live in flat arrays indexed by a dense group id: the key arena
// holds group g's key values at [g * width, (g + 1) * width), next to its
// full key hash, first-occurrence position and fold cells. They are found
// through an open-addressing table: a power-of-two array of slots holding
// gid + 1 (0 = empty), probed linearly from Fmix64 of the key hash and
// doubled whenever it would pass half full. A single dictionary-encoded
// group column skips the table through a cached code -> group id map.
// Consume works in two phases: every row's group id (key hashes computed
// column-at-a-time by the hash join's HashKeyRange), then one pass per
// aggregate over the chunk.
//
// Semantics mirror exec/row_ops.h AggState: COUNT counts rows, SUM folds
// numeric arguments (non-numeric columns sum to 0), AVG is sum/count, and a
// scalar aggregate over zero input rows yields one identity row of 0.0 —
// the empty-input contract the differential suite pins down.

#ifndef MQO_VEXEC_AGG_STATE_H_
#define MQO_VEXEC_AGG_STATE_H_

#include "algebra/logical_expr.h"
#include "storage/column_batch.h"

namespace mqo {

/// One worker's (or the serial path's single) aggregation state.
class AggAccumulator {
 public:
  /// Folds every row of `batch` in. `group_idx` / `arg_idx` are column
  /// indices into the batch (arg -1 = COUNT(*)); `order_base` positions the
  /// batch's rows in the pipeline's deterministic global order (row r gets
  /// position order_base + r).
  void Consume(const ColumnBatch& batch, const std::vector<int>& group_idx,
               const std::vector<int>& arg_idx,
               const std::vector<AggExpr>& aggs, uint64_t order_base);

  /// Folds `other` into this accumulator (commutative up to the
  /// first-occurrence ordering, which takes the minimum position).
  void MergeFrom(const AggAccumulator& other, const std::vector<AggExpr>& aggs);

  /// Emits one row per group, ordered by first occurrence, with the same
  /// output schema as the serial kernel: group columns, then one column per
  /// aggregate named by `renames` (aggregate subsumption) or the aggregate's
  /// default output column. A scalar aggregate with no groups emits the
  /// identity row.
  Result<ColumnBatch> Finish(const std::vector<ColumnRef>& group_by,
                             const std::vector<AggExpr>& aggs,
                             const std::vector<std::string>& renames) const;

  /// Rows folded through the dictionary-code fast path (obs: vexec.dict_hits).
  int64_t dict_hit_rows() const { return dict_hit_rows_; }

 private:
  /// Scalar fold cell for one (group, aggregate) pair.
  struct Cell {
    double count = 0.0;
    double sum = 0.0;
    bool any = false;
    Value min_value;
    Value max_value;
    uint64_t min_pos = 0;  ///< Position of min_value, for tie-breaks.
    uint64_t max_pos = 0;
  };

  /// Index of the group with `hash` whose keys equal row `row`'s group
  /// cells, or a fresh group created at `pos`.
  size_t GroupOf(const ColumnBatch& batch, const std::vector<int>& group_idx,
                 uint32_t row, uint64_t hash, uint64_t pos, size_t num_aggs);

  /// Makes room for one more group (load factor at most 1/2), then returns
  /// the table slot holding the group with `hash` for which `same(gid)`
  /// holds, or the empty slot where such a group belongs.
  template <typename Same>
  size_t FindSlot(uint64_t hash, Same same);

  /// Appends a group with `hash` and no keys or fold cells yet (the caller
  /// appends them) and indexes it at the empty table slot `slot`.
  size_t AddGroup(size_t slot, uint64_t hash, uint64_t pos);

  std::vector<uint32_t> slots_;  ///< gid + 1, or 0 for an empty slot.
  size_t width_ = 0;             ///< Group columns per key.
  std::vector<Value> keys_;      ///< Group g's keys at [g*width_, +width_).
  std::vector<uint64_t> group_hash_;
  std::vector<uint64_t> first_seen_;
  std::vector<Cell> cells_;  ///< group * num_aggs + agg.

  // Dictionary fast path (single dict-encoded group column): cached
  // code→group-id table, rebuilt if the source dictionary changes.
  std::shared_ptr<const ColumnDict> fast_dict_;
  std::vector<int32_t> code_to_gid_;
  int64_t dict_hit_rows_ = 0;
};

}  // namespace mqo

#endif  // MQO_VEXEC_AGG_STATE_H_
