#include "vexec/vector_executor.h"

#include <set>

#include "obs/obs.h"

namespace mqo {

namespace {

/// One chain element recorded while descending from the pipeline root
/// toward its source (front = topmost). Predicate pointers reference memo
/// storage, which outlives the compilation.
struct ChainDesc {
  enum Kind { kFilter, kProject, kProbe } kind;
  const Predicate* predicate = nullptr;             ///< kFilter
  const std::vector<ColumnRef>* project = nullptr;  ///< kProject
  const JoinPredicate* join_predicate = nullptr;    ///< kProbe
  EqId probe_eq = -1;  ///< kProbe: class of the probe-side child.
  ColumnBatch build;   ///< kProbe: executed build side.
};

}  // namespace

Result<ColumnBatch> VectorPlanExecutor::Scan(const std::string& table,
                                             const std::string& alias) {
  return ScanBatch(*data_, table, alias);
}

Result<ColumnBatch> VectorPlanExecutor::Filter(const ColumnBatch& in,
                                               const Predicate& predicate) {
  return FilterBatch(in, predicate, options_.num_threads, options_.morsel_rows);
}

Result<ColumnBatch> VectorPlanExecutor::ToClassAttrs(EqId eq,
                                                     ColumnBatch batch) {
  const auto& attrs = memo_->Attributes(memo_->Find(eq));
  return ProjectBatch(batch, attrs);
}

Result<ColumnBatch> VectorPlanExecutor::SideInputBatch(EqId eq) {
  eq = memo_->Find(eq);
  if (store_.Contains(eq)) {
    MQO_ASSIGN_OR_RETURN(PinnedSegment pinned, store_.Pin(eq));
    // The COW copy shares the pinned payloads and keeps them alive after
    // the pin drops, even if the store later evicts the segment.
    return ColumnBatch(pinned.batch());
  }
  return EvaluateClassBatch(eq);
}

Result<ColumnBatch> VectorPlanExecutor::EvaluateOpBatch(const MemoOp& op) {
  switch (op.kind) {
    case LogicalOp::kScan:
      return Scan(op.table, op.alias);
    case LogicalOp::kSelect: {
      MQO_ASSIGN_OR_RETURN(ColumnBatch in, EvaluateClassBatch(op.children[0]));
      return Filter(in, op.predicate);
    }
    case LogicalOp::kJoin: {
      MQO_ASSIGN_OR_RETURN(ColumnBatch left, EvaluateClassBatch(op.children[0]));
      MQO_ASSIGN_OR_RETURN(ColumnBatch right,
                           EvaluateClassBatch(op.children[1]));
      return HashJoinBatch(left, right, op.join_predicate,
                           options_.num_threads, options_.morsel_rows);
    }
    case LogicalOp::kProject: {
      MQO_ASSIGN_OR_RETURN(ColumnBatch in, EvaluateClassBatch(op.children[0]));
      return ProjectBatch(in, op.project_columns);
    }
    case LogicalOp::kAggregate: {
      MQO_ASSIGN_OR_RETURN(ColumnBatch in, EvaluateClassBatch(op.children[0]));
      return AggregateBatch(in, op.group_by, op.aggregates, op.output_renames);
    }
    case LogicalOp::kBatch:
      return Status::Unimplemented("batch root is not evaluable");
  }
  return Status::Internal("unknown operator kind");
}

Result<ColumnBatch> VectorPlanExecutor::EvaluateClassBatch(EqId eq) {
  eq = memo_->Find(eq);
  auto ops = memo_->ClassOps(eq);
  if (ops.empty()) return Status::Internal("empty class");
  MQO_ASSIGN_OR_RETURN(ColumnBatch raw, EvaluateOpBatch(memo_->op(ops.front())));
  return ToClassAttrs(eq, std::move(raw));
}

Result<ColumnBatch> VectorPlanExecutor::RunPipelineFor(const PlanNodePtr& plan,
                                                       const MemoOp* agg) {
  // Descend from the pipeline root to its source, recording the operator
  // chain. Anything that cannot stream (merge joins, nested aggregates)
  // breaks the pipeline: it executes recursively and becomes the source.
  std::vector<ChainDesc> descs;
  ColumnBatch source;
  // Holds the pipeline's source segment pinned (when the source is a
  // materialized read) until the pipeline has run: in-flight pipelines never
  // see their segment evicted under them.
  PinnedSegment source_pin;
  PlanNodePtr cur = plan;
  for (bool at_source = false; !at_source;) {
    const MemoOp* op =
        cur->logical_op >= 0 ? &memo_->op(cur->logical_op) : nullptr;
    switch (cur->op) {
      case PhysOp::kFilter: {
        if (op == nullptr) return Status::Internal("filter without op");
        ChainDesc d;
        d.kind = ChainDesc::kFilter;
        d.predicate = &op->predicate;
        descs.push_back(std::move(d));
        cur = cur->children[0];
        break;
      }
      case PhysOp::kProject: {
        if (op == nullptr) return Status::Internal("project without op");
        ChainDesc d;
        d.kind = ChainDesc::kProject;
        d.project = &op->project_columns;
        descs.push_back(std::move(d));
        cur = cur->children[0];
        break;
      }
      case PhysOp::kSort:
        // Bag semantics: the enforcer's ordering never changes the result
        // relation and no vectorized consumer relies on input order (merge
        // joins argsort their own inputs), so the enforcer streams through.
        cur = cur->children[0];
        break;
      case PhysOp::kBlockNLJoin:
      case PhysOp::kIndexNLJoin: {
        if (op == nullptr) return Status::Internal("join without op");
        ChainDesc d;
        d.kind = ChainDesc::kProbe;
        d.join_predicate = &op->join_predicate;
        d.probe_eq = cur->children[0]->eq;
        if (cur->children.size() > 1) {
          MQO_ASSIGN_OR_RETURN(d.build, ExecuteBatch(cur->children[1]));
        } else {
          // BNL/index probes rescan a base relation or materialized node
          // that is not part of the plan tree.
          MQO_ASSIGN_OR_RETURN(d.build, SideInputBatch(op->children[1]));
        }
        descs.push_back(std::move(d));
        cur = cur->children[0];
        break;
      }
      case PhysOp::kTableScan: {
        if (op == nullptr) return Status::Internal("scan without logical op");
        MQO_ASSIGN_OR_RETURN(source, Scan(op->table, op->alias));
        at_source = true;
        break;
      }
      case PhysOp::kIndexScan: {
        if (op == nullptr) return Status::Internal("index scan without op");
        MQO_ASSIGN_OR_RETURN(source, EvaluateClassBatch(op->children[0]));
        ChainDesc d;
        d.kind = ChainDesc::kFilter;
        d.predicate = &op->predicate;
        descs.push_back(std::move(d));
        at_source = true;
        break;
      }
      case PhysOp::kReadMaterialized: {
        const EqId eq = memo_->Find(cur->eq);
        auto pinned = store_.Pin(eq);
        if (!pinned.ok()) {
          return Status::Internal("materialized node E" + std::to_string(eq) +
                                  " not in store: " +
                                  pinned.status().ToString());
        }
        source = pinned.ValueOrDie().batch();  // zero-copy segment view
        source_pin = std::move(pinned).ValueOrDie();
        at_source = true;
        break;
      }
      default: {
        // Pipeline breaker (merge join, nested aggregate) or a malformed
        // batch root: execute it whole — ExecuteBatchRaw dispatches these
        // directly, so this never re-enters pipeline compilation for the
        // same node — and stream its class-projected output. Anything else
        // would loop without progress, so fail loudly instead.
        if (cur->op != PhysOp::kMergeJoin &&
            cur->op != PhysOp::kSortAggregate &&
            cur->op != PhysOp::kBatchRoot) {
          return Status::Internal("unknown physical operator");
        }
        MQO_ASSIGN_OR_RETURN(source, ExecuteBatch(cur));
        at_source = true;
        break;
      }
    }
  }

  VecPipeline pipeline;
  pipeline.source = std::move(source);
  if (Tracer* t = TracerOf(options_.obs); t && t->enabled()) {
    pipeline.label = "E" + std::to_string(memo_->Find(plan->eq));
  }

  // Filters adjacent to the source fuse into the scan: they evaluate against
  // source row ranges directly, before any column is materialized. Popping
  // from the back applies the lowest filter's conjuncts first, as the plan
  // tree does.
  while (!descs.empty() && descs.back().kind == ChainDesc::kFilter) {
    for (const auto& cmp : descs.back().predicate->conjuncts()) {
      const int idx = ColumnIndexIn(pipeline.source.names, cmp.column);
      if (idx < 0) {
        return Status::Internal("predicate column missing: " +
                                cmp.column.ToString());
      }
      pipeline.source_filters.push_back(cmp);
      pipeline.source_filter_idx.push_back(idx);
    }
    descs.pop_back();
  }

  // Column pruning: walk the remaining chain top-down to find what the sink
  // and every operator actually read from the source.
  std::set<ColumnRef> required;
  if (agg != nullptr) {
    for (const auto& g : agg->group_by) required.insert(g);
    for (const auto& a : agg->aggregates) {
      if (!a.arg.name.empty()) required.insert(a.arg);
    }
  } else {
    const auto& attrs = memo_->Attributes(memo_->Find(plan->eq));
    required.insert(attrs.begin(), attrs.end());
  }
  for (const ChainDesc& d : descs) {
    switch (d.kind) {
      case ChainDesc::kFilter:
        for (const auto& cmp : d.predicate->conjuncts()) {
          required.insert(cmp.column);
        }
        break;
      case ChainDesc::kProject:
        required.clear();
        required.insert(d.project->begin(), d.project->end());
        break;
      case ChainDesc::kProbe: {
        // The probe emits exactly (probe-side class attrs, build columns);
        // everything above is satisfied from those.
        const auto& attrs = memo_->Attributes(memo_->Find(d.probe_eq));
        required.clear();
        required.insert(attrs.begin(), attrs.end());
        break;
      }
    }
  }
  for (size_t i = 0; i < pipeline.source.names.size(); ++i) {
    if (required.count(pipeline.source.names[i]) > 0) {
      pipeline.keep_idx.push_back(static_cast<int>(i));
      pipeline.chunk_names.push_back(pipeline.source.names[i]);
    }
  }
  if (pipeline.keep_idx.size() != required.size()) {
    return Status::Internal("pipeline column missing from source");
  }

  // Assemble the operator chain bottom-up, tracking the chunk schema and
  // freezing each join's build side into a shared read-only hash table.
  std::vector<ColumnRef> schema = pipeline.chunk_names;
  for (auto it = descs.rbegin(); it != descs.rend(); ++it) {
    ChainDesc& d = *it;
    switch (d.kind) {
      case ChainDesc::kFilter: {
        std::vector<Comparison> conjuncts;
        std::vector<int> idx;
        for (const auto& cmp : d.predicate->conjuncts()) {
          const int i = ColumnIndexIn(schema, cmp.column);
          if (i < 0) {
            return Status::Internal("predicate column missing: " +
                                    cmp.column.ToString());
          }
          conjuncts.push_back(cmp);
          idx.push_back(i);
        }
        pipeline.ops.push_back(std::make_unique<FilterChunkOp>(
            std::move(conjuncts), std::move(idx), schema));
        break;
      }
      case ChainDesc::kProject: {
        std::vector<int> idx;
        for (const auto& col : *d.project) {
          const int i = ColumnIndexIn(schema, col);
          if (i < 0) {
            return Status::Internal("project: column " + col.ToString() +
                                    " missing from batch");
          }
          idx.push_back(i);
        }
        schema = *d.project;
        pipeline.ops.push_back(
            std::make_unique<ProjectChunkOp>(std::move(idx), schema));
        break;
      }
      case ChainDesc::kProbe: {
        const std::vector<ColumnRef> left_attrs =
            memo_->Attributes(memo_->Find(d.probe_eq));
        MQO_ASSIGN_OR_RETURN(
            JoinSpec spec,
            ResolveJoinSpec(left_attrs, d.build.names, *d.join_predicate));
        std::vector<int> probe_keys;
        std::vector<int> build_keys;
        for (const auto& c : spec.conds) {
          const int i = ColumnIndexIn(schema, left_attrs[c.left]);
          if (i < 0) {
            return Status::Internal("join condition column missing: " +
                                    left_attrs[c.left].ToString());
          }
          probe_keys.push_back(i);
          build_keys.push_back(c.right);
        }
        std::vector<int> left_out;
        for (const auto& col : left_attrs) {
          const int i = ColumnIndexIn(schema, col);
          if (i < 0) {
            return Status::Internal("probe column missing: " + col.ToString());
          }
          left_out.push_back(i);
        }
        auto table = std::make_shared<const JoinHashTable>(JoinHashTable::Build(
            std::move(d.build), std::move(build_keys), options_.pipeline()));
        // Bloom pushdown: when this probe is the first chain op, its key
        // columns are source columns (chunk column i materializes source
        // column keep_idx[i]), so the build's Bloom filter can reject rows
        // before chunk materialization.
        if (options_.bloom_filters && pipeline.ops.empty() &&
            !probe_keys.empty() && table->bloom() != nullptr) {
          pipeline.bloom = table->bloom();
          pipeline.bloom_key_idx.clear();
          for (int k : probe_keys) {
            pipeline.bloom_key_idx.push_back(pipeline.keep_idx[k]);
          }
        }
        schema = spec.out_names;
        pipeline.ops.push_back(std::make_unique<ProbeChunkOp>(
            std::move(table), std::move(probe_keys), std::move(left_out),
            std::move(spec.out_names)));
        break;
      }
    }
  }

  if (agg != nullptr) {
    pipeline.aggregate = true;
    pipeline.agg_group_by = agg->group_by;
    pipeline.agg_aggs = agg->aggregates;
    pipeline.agg_renames = agg->output_renames;
    for (const auto& g : agg->group_by) {
      const int i = ColumnIndexIn(schema, g);
      if (i < 0) {
        return Status::Internal("group column missing: " + g.ToString());
      }
      pipeline.agg_group_idx.push_back(i);
    }
    for (const auto& a : agg->aggregates) {
      if (a.arg.name.empty()) {
        pipeline.agg_arg_idx.push_back(-1);  // COUNT(*)
        continue;
      }
      const int i = ColumnIndexIn(schema, a.arg);
      if (i < 0) {
        return Status::Internal("aggregate argument missing: " +
                                a.arg.ToString());
      }
      pipeline.agg_arg_idx.push_back(i);
    }
  }

  return RunVecPipeline(pipeline, options_);
}

Result<ColumnBatch> VectorPlanExecutor::ExecuteBatchRaw(
    const PlanNodePtr& plan) {
  const MemoOp* op =
      plan->logical_op >= 0 ? &memo_->op(plan->logical_op) : nullptr;
  switch (plan->op) {
    case PhysOp::kMergeJoin: {
      // Merge joins stay sort-merge (a pipeline breaker) to keep an
      // independently-implemented second join path hot; equi-predicates in
      // BNL/index plans take the pipelined hash probe instead.
      if (op == nullptr) return Status::Internal("join without op");
      MQO_ASSIGN_OR_RETURN(ColumnBatch left, ExecuteBatch(plan->children[0]));
      ColumnBatch right;
      if (plan->children.size() > 1) {
        MQO_ASSIGN_OR_RETURN(right, ExecuteBatch(plan->children[1]));
      } else {
        MQO_ASSIGN_OR_RETURN(right, SideInputBatch(op->children[1]));
      }
      return MergeJoinBatch(left, right, op->join_predicate);
    }
    case PhysOp::kSortAggregate: {
      if (op == nullptr) return Status::Internal("aggregate without op");
      // The chain under the aggregate feeds thread-local aggregation states
      // directly (no intermediate materialized batch).
      return RunPipelineFor(plan->children[0], op);
    }
    case PhysOp::kBatchRoot:
      return Status::Unimplemented("execute batch roots via ExecuteConsolidated");
    case PhysOp::kTableScan:
    case PhysOp::kIndexScan:
    case PhysOp::kFilter:
    case PhysOp::kBlockNLJoin:
    case PhysOp::kIndexNLJoin:
    case PhysOp::kSort:
    case PhysOp::kProject:
    case PhysOp::kReadMaterialized:
      return RunPipelineFor(plan, nullptr);
  }
  return Status::Internal("unknown physical operator");
}

Result<ColumnBatch> VectorPlanExecutor::ExecuteBatch(const PlanNodePtr& plan) {
  MQO_ASSIGN_OR_RETURN(ColumnBatch raw, ExecuteBatchRaw(plan));
  return ToClassAttrs(plan->eq, std::move(raw));
}

Result<NamedRows> VectorPlanExecutor::Execute(const PlanNodePtr& plan) {
  MQO_ASSIGN_OR_RETURN(ColumnBatch batch, ExecuteBatch(plan));
  NamedRows rows = BatchToRows(batch);
  const auto& attrs = memo_->Attributes(memo_->Find(plan->eq));
  MQO_RETURN_NOT_OK(Canonicalize(attrs, &rows));
  return rows;
}

Result<ColumnBatch> VectorPlanExecutor::ComputeSegment(
    const PlanNodePtr& compute_plan) {
  // The pipeline sink's merged result becomes the segment: the per-morsel
  // chunks were gathered on the workers and concatenated column-parallel,
  // so no serial whole-result gather happens on this thread.
  MQO_ASSIGN_OR_RETURN(ColumnBatch batch, ExecuteBatch(compute_plan));
  if (options_.numeric_compression) {
    // Compress the segment before it lands: MatStore budget accounting,
    // eviction weights, and spill penalties then see encoded bytes, and
    // later reads of this segment can zone-skip like base-table scans.
    for (ColumnVector& col : batch.columns) {
      col.ForEncode();
      col.BuildZoneMap();
    }
  }
  return batch;
}

}  // namespace mqo
