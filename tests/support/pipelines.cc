#include "support/pipelines.h"

#include <numeric>

namespace mqo {

namespace {

/// Every column index of `batch`, in order.
std::vector<int> AllColumnsOf(const ColumnBatch& batch) {
  std::vector<int> cols(batch.columns.size());
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

/// A pipeline over `in` that materializes every column into its chunks.
VecPipeline SourcePipeline(const ColumnBatch& in) {
  VecPipeline pipe;
  pipe.source = in;
  pipe.keep_idx = AllColumnsOf(in);
  pipe.chunk_names = in.names;
  return pipe;
}

/// The index of `col` in `in`, or Internal naming `what`.
Result<int> ColumnIn(const ColumnBatch& in, const ColumnRef& col,
                     const char* what) {
  const int i = in.ColumnIndex(col);
  if (i < 0) {
    return Status::Internal(std::string(what) + " missing: " + col.ToString());
  }
  return i;
}

}  // namespace

Result<ColumnBatch> RunFilterPipeline(const ColumnBatch& in,
                                      const Predicate& predicate,
                                      const ExecOptions& exec) {
  VecPipeline pipe = SourcePipeline(in);
  for (const Comparison& cmp : predicate.conjuncts()) {
    MQO_ASSIGN_OR_RETURN(int i, ColumnIn(in, cmp.column, "predicate column"));
    pipe.source_filters.push_back(cmp);
    pipe.source_filter_idx.push_back(i);
  }
  return RunVecPipeline(pipe, exec);
}

Result<ColumnBatch> RunProbePipeline(const ColumnBatch& left,
                                     const ColumnBatch& right,
                                     const JoinPredicate& predicate,
                                     const ExecOptions& exec, bool bloom) {
  MQO_ASSIGN_OR_RETURN(JoinSpec spec,
                       ResolveJoinSpec(left.names, right.names, predicate));
  std::vector<int> probe_keys;
  std::vector<int> build_keys;
  for (const auto& cond : spec.conds) {
    probe_keys.push_back(cond.left);
    build_keys.push_back(cond.right);
  }
  auto table = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(right, std::move(build_keys), exec));
  VecPipeline pipe = SourcePipeline(left);
  if (bloom && table->bloom() != nullptr) {
    pipe.bloom = table->bloom();
    pipe.bloom_key_idx = probe_keys;
  }
  pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
      std::move(table), std::move(probe_keys), pipe.keep_idx,
      AllColumnsOf(right), std::move(spec.out_names)));
  return RunVecPipeline(pipe, exec);
}

Result<ColumnBatch> RunAggPipeline(const ColumnBatch& in,
                                   const std::vector<ColumnRef>& group_by,
                                   const std::vector<AggExpr>& aggs,
                                   const ExecOptions& exec) {
  VecPipeline pipe = SourcePipeline(in);
  pipe.aggregate = true;
  pipe.agg_group_by = group_by;
  pipe.agg_aggs = aggs;
  for (const auto& g : group_by) {
    MQO_ASSIGN_OR_RETURN(int i, ColumnIn(in, g, "group column"));
    pipe.agg_group_idx.push_back(i);
  }
  for (const auto& agg : aggs) {
    if (agg.arg.name.empty()) {
      pipe.agg_arg_idx.push_back(-1);  // COUNT(*)
      continue;
    }
    MQO_ASSIGN_OR_RETURN(int i, ColumnIn(in, agg.arg, "aggregate argument"));
    pipe.agg_arg_idx.push_back(i);
  }
  return RunVecPipeline(pipe, exec);
}

}  // namespace mqo
