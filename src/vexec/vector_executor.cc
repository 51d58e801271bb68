#include "vexec/vector_executor.h"

#include "obs/obs.h"
#include "vexec/column_need.h"

namespace mqo {

namespace {

/// One chain element recorded while descending from the pipeline root
/// toward its source (front = topmost). Predicate pointers reference memo
/// storage, which outlives the compilation.
struct ChainDesc {
  enum Kind { kFilter, kProject, kProbe } kind;
  const Predicate* predicate = nullptr;             ///< kFilter
  const std::vector<ColumnRef>* project = nullptr;  ///< kProject
  std::vector<ColumnRef> probe_out;   ///< kProbe: probe-side columns kept.
  std::vector<ColumnRef> probe_keys;  ///< kProbe: key columns, both sides
  std::vector<ColumnRef> build_keys;  ///< in condition order.
  ColumnNeed build_out;  ///< kProbe: build-side columns kept.
  /// kProbe: the build side executed for this probe, pruned to its need;
  /// unused when `index` is set.
  ColumnBatch build;
  /// kProbe: a base relation's persistent join index, whose columns this
  /// plan qualifies under `index_alias`.
  std::shared_ptr<const JoinHashTable> index;
  std::string index_alias;
  /// What the chain below this element must deliver: the running need
  /// after this element's rule applied.
  ColumnNeed input_need;
};

}  // namespace

Result<ColumnBatch> VectorPlanExecutor::Scan(const std::string& table,
                                             const std::string& alias) {
  return ScanBatch(*data_, table, alias);
}

Result<const MemoOp*> VectorPlanExecutor::BaseScanOf(EqId eq) {
  eq = memo_->Find(eq);
  const std::vector<OpId> ops = memo_->ClassOps(eq);
  if (ops.empty() || memo_->op(ops.front()).kind != LogicalOp::kScan) {
    return Status::Internal("E" + std::to_string(eq) +
                            " is neither materialized nor a base relation");
  }
  return &memo_->op(ops.front());
}

Result<ColumnBatch> VectorPlanExecutor::BaseRelationBatch(EqId eq) {
  MQO_ASSIGN_OR_RETURN(const MemoOp* scan, BaseScanOf(eq));
  MQO_ASSIGN_OR_RETURN(ColumnBatch raw, Scan(scan->table, scan->alias));
  return ProjectBatch(raw, memo_->Attributes(memo_->Find(eq)));
}

Result<ColumnBatch> VectorPlanExecutor::RunPipelineFor(const PlanNodePtr& plan,
                                                       const MemoOp* agg,
                                                       ColumnNeed need) {
  if (agg != nullptr) need = AggregateNeed(*agg);
  const ColumnNeed sink_need = need;
  // Descend from the pipeline root to its source, recording the operator
  // chain and carrying the running need down it: each join's build side
  // executes with its share, and a breaker at the source (a nested
  // aggregate) executes recursively with what is left.
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
        ChainDesc d;
        d.kind = ChainDesc::kFilter;
        MQO_ASSIGN_OR_RETURN(need, InputNeed(memo_, *cur, need, nullptr));
        d.predicate = &op->predicate;
        d.input_need = need;
        descs.push_back(std::move(d));
        cur = cur->children[0];
        break;
      }
      case PhysOp::kProject: {
        ChainDesc d;
        d.kind = ChainDesc::kProject;
        MQO_ASSIGN_OR_RETURN(need, InputNeed(memo_, *cur, need, nullptr));
        d.project = &op->project_columns;
        d.input_need = need;
        descs.push_back(std::move(d));
        cur = cur->children[0];
        break;
      }
      case PhysOp::kSort:
        // Bag semantics: the enforcer's ordering never changes the result
        // relation and no vectorized consumer relies on input order, so the
        // enforcer streams through.
        cur = cur->children[0];
        break;
      case PhysOp::kBlockNLJoin:
      case PhysOp::kIndexNLJoin:
      case PhysOp::kMergeJoin: {
        // Every join is a hash probe: child 0 streams through the pipeline
        // and the build side (child 1, or the side input) is a hash table.
        ChainDesc d;
        d.kind = ChainDesc::kProbe;
        JoinNeed split;
        MQO_ASSIGN_OR_RETURN(need, InputNeed(memo_, *cur, need, &split));
        const EqId build_eq = split.build;
        if (cur->children.size() > 1) {
          MQO_ASSIGN_OR_RETURN(d.build,
                               ExecuteBatch(cur->children[1], split.right));
        } else {
          // A one-child join reads a materialized node or a base relation
          // that is not part of the plan tree (one segment read either way).
          MQO_ASSIGN_OR_RETURN(PinnedSegment pinned, ReadSegment(build_eq));
          if (pinned.valid()) {
            // The projection's COW column handles share the pinned payloads
            // and keep them alive after the pin drops, even if the store
            // later evicts the segment.
            MQO_ASSIGN_OR_RETURN(
                d.build, ProjectBatch(pinned.batch(),
                                      NeedAttrs(memo_, build_eq, split.right)));
          } else {
            // A base relation probes its persistent join index: built once
            // per dataset, not once per read.
            MQO_ASSIGN_OR_RETURN(const MemoOp* scan, BaseScanOf(build_eq));
            std::vector<std::string> keys;
            for (const auto& k : split.right_keys) keys.push_back(k.name);
            MQO_ASSIGN_OR_RETURN(
                d.index, BaseJoinIndex(*data_, scan->table, keys,
                                       options_.pipeline(),
                                       MetricsOf(options_.obs)));
            d.index_alias = scan->alias;
          }
        }
        d.input_need = need;
        d.probe_out = NeedAttrs(memo_, split.probe, split.left_out);
        d.probe_keys = std::move(split.left_keys);
        d.build_keys = std::move(split.right_keys);
        d.build_out = std::move(split.right_out);
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
        MQO_ASSIGN_OR_RETURN(source, BaseRelationBatch(op->children[0]));
        ChainDesc d;
        d.kind = ChainDesc::kFilter;
        d.predicate = &op->predicate;
        descs.push_back(std::move(d));
        at_source = true;
        break;
      }
      case PhysOp::kReadMaterialized: {
        MQO_ASSIGN_OR_RETURN(source_pin, ReadSegment(cur->eq));
        if (!source_pin.valid()) {
          return Status::Internal("node E" +
                                  std::to_string(memo_->Find(cur->eq)) +
                                  " was not materialized");
        }
        source = source_pin.batch();  // zero-copy segment view
        at_source = true;
        break;
      }
      default: {
        // Pipeline breaker (a nested aggregate) or a malformed batch root:
        // execute it whole — ExecuteBatch dispatches these directly, so
        // this never re-enters pipeline compilation for the same node — and
        // stream its output, projected onto the running need. Anything else
        // would loop without progress, so fail loudly instead.
        if (cur->op != PhysOp::kSortAggregate &&
            cur->op != PhysOp::kBatchRoot) {
          return Status::Internal("unknown physical operator");
        }
        MQO_ASSIGN_OR_RETURN(source, ExecuteBatch(cur, need));
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

  // Chunk columns: what the lowest unfused chain element reads, without the
  // fused filters' columns (they read the source directly).
  const ColumnNeed& required =
      descs.empty() ? sink_need : descs.back().input_need;
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
  // freezing each executed build side into a shared read-only hash table
  // (a base relation's persistent index is already one).
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
        // The build columns as this plan names them.
        std::vector<ColumnRef> build_names = d.build.names;
        if (d.index != nullptr) {
          build_names.clear();
          for (const auto& col : d.index->build().names) {
            build_names.emplace_back(d.index_alias, col.name);
          }
        }
        std::vector<int> probe_keys;
        std::vector<int> build_keys;
        for (size_t k = 0; k < d.probe_keys.size(); ++k) {
          const int i = ColumnIndexIn(schema, d.probe_keys[k]);
          const int j = ColumnIndexIn(build_names, d.build_keys[k]);
          if (i < 0 || j < 0) {
            return Status::Internal("join condition column missing: " +
                                    d.probe_keys[k].ToString() + " = " +
                                    d.build_keys[k].ToString());
          }
          probe_keys.push_back(i);
          build_keys.push_back(j);
        }
        std::vector<int> left_out;
        for (const auto& col : d.probe_out) {
          const int i = ColumnIndexIn(schema, col);
          if (i < 0) {
            return Status::Internal("probe column missing: " + col.ToString());
          }
          left_out.push_back(i);
        }
        std::shared_ptr<const JoinHashTable> table = std::move(d.index);
        if (table == nullptr) {
          table = std::make_shared<const JoinHashTable>(JoinHashTable::Build(
              std::move(d.build), std::move(build_keys), options_.pipeline(),
              MetricsOf(options_.obs)));
        }
        // Bloom pushdown: when this probe is the first chain op, its key
        // columns are source columns (chunk column i materializes source
        // column keep_idx[i]), so the build's Bloom filter can reject rows
        // before chunk materialization.
        if (pipeline.ops.empty() && !probe_keys.empty() &&
            table->bloom() != nullptr) {
          pipeline.bloom = table->bloom();
          pipeline.bloom_key_idx.clear();
          for (int k : probe_keys) {
            pipeline.bloom_key_idx.push_back(pipeline.keep_idx[k]);
          }
        }
        schema = d.probe_out;
        std::vector<int> build_out;
        for (size_t j = 0; j < build_names.size(); ++j) {
          if (d.build_out.count(build_names[j]) > 0) {
            build_out.push_back(static_cast<int>(j));
            schema.push_back(build_names[j]);
          }
        }
        pipeline.ops.push_back(std::make_unique<ProbeChunkOp>(
            std::move(table), std::move(probe_keys), std::move(left_out),
            std::move(build_out), schema));
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

Result<ColumnBatch> VectorPlanExecutor::ExecuteBatch(const PlanNodePtr& plan,
                                                     const ColumnNeed& need) {
  if (plan->op == PhysOp::kBatchRoot) {
    return Status::Unimplemented("execute batch roots via ExecuteConsolidated");
  }
  const bool aggregate = plan->op == PhysOp::kSortAggregate;
  if (aggregate && plan->logical_op < 0) {
    return Status::Internal("aggregate without op");
  }
  // The chain under an aggregate feeds thread-local aggregation states
  // directly (no intermediate materialized batch).
  MQO_ASSIGN_OR_RETURN(
      ColumnBatch raw,
      aggregate ? RunPipelineFor(plan->children[0],
                                 &memo_->op(plan->logical_op), {})
                : RunPipelineFor(plan, nullptr, need));
  return ProjectBatch(raw, NeedAttrs(memo_, plan->eq, need));
}

Result<NamedRows> VectorPlanExecutor::Execute(const PlanNodePtr& plan) {
  // Query roots keep every class attribute.
  const auto& attrs = memo_->Attributes(memo_->Find(plan->eq));
  MQO_ASSIGN_OR_RETURN(
      ColumnBatch batch,
      ExecuteBatch(plan, ColumnNeed(attrs.begin(), attrs.end())));
  NamedRows rows = BatchToRows(batch);
  MQO_RETURN_NOT_OK(Canonicalize(attrs, &rows));
  return rows;
}

Status VectorPlanExecutor::AddSegmentReads(
    const PlanNodePtr& plan, const ColumnNeed& need,
    const std::unordered_set<EqId>& materialized,
    std::unordered_map<EqId, ColumnNeed>* needs) {
  return mqo::AddSegmentReads(memo_, plan, need, materialized, needs);
}

Result<ColumnBatch> VectorPlanExecutor::ComputeSegment(
    const PlanNodePtr& compute_plan, const ColumnNeed& need) {
  // The pipeline sink's merged result becomes the segment: the per-morsel
  // chunks were gathered on the workers and concatenated column-parallel,
  // so no serial whole-result gather happens on this thread. It holds only
  // the columns its readers read.
  MQO_ASSIGN_OR_RETURN(ColumnBatch batch, ExecuteBatch(compute_plan, need));
  // Compress the segment before it lands: MatStore budget accounting and
  // eviction weights then see encoded bytes, and later reads of this
  // segment can zone-skip like base-table scans. FOR encoding applies only
  // where it shrinks an int64 column.
  for (ColumnVector& col : batch.columns) {
    col.ForEncode();
    col.BuildZoneMap();
  }
  return batch;
}

}  // namespace mqo
