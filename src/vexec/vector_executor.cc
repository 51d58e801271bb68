#include "vexec/vector_executor.h"

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
  std::vector<ColumnRef> probe_out;   ///< kProbe: probe-side columns kept.
  std::vector<ColumnRef> probe_keys;  ///< kProbe: key columns, both sides
  std::vector<ColumnRef> build_keys;  ///< in condition order.
  ColumnBatch build;  ///< kProbe: executed build side, pruned to its need.
};

/// The attributes of class `eq` that `need` names, in class order.
std::vector<ColumnRef> NeedAttrs(Memo* memo, EqId eq,
                                 const ColumnNeed& need) {
  std::vector<ColumnRef> out;
  for (const auto& col : memo->Attributes(memo->Find(eq))) {
    if (need.count(col) > 0) out.push_back(col);
  }
  return out;
}

/// A join's need split across its inputs: what each side must emit (its
/// share of the need plus its join keys) and the key columns, one per
/// condition, in condition order.
struct JoinNeed {
  ColumnNeed left;
  ColumnNeed right;
  std::vector<ColumnRef> left_keys;
  std::vector<ColumnRef> right_keys;
};

/// Splits a join's need across its inputs, classes `left` and `right`.
/// Keys resolve against the full class attributes, so overlapping aliases
/// fail with the row engine's Unimplemented whatever is pruned.
Result<JoinNeed> SplitJoinNeed(Memo* memo, const ColumnNeed& need, EqId left,
                               EqId right, const JoinPredicate& predicate) {
  const std::vector<ColumnRef>& left_attrs =
      memo->Attributes(memo->Find(left));
  const std::vector<ColumnRef>& right_attrs =
      memo->Attributes(memo->Find(right));
  MQO_ASSIGN_OR_RETURN(JoinSpec spec,
                       ResolveJoinSpec(left_attrs, right_attrs, predicate));
  JoinNeed split;
  for (const auto& col : left_attrs) {
    if (need.count(col) > 0) split.left.insert(col);
  }
  for (const auto& col : right_attrs) {
    if (need.count(col) > 0) split.right.insert(col);
  }
  for (const auto& c : spec.conds) {
    split.left_keys.push_back(left_attrs[c.left]);
    split.right_keys.push_back(right_attrs[c.right]);
    split.left.insert(left_attrs[c.left]);
    split.right.insert(right_attrs[c.right]);
  }
  return split;
}

/// What an aggregate sink reads: its group keys and aggregate arguments.
ColumnNeed AggregateNeed(const MemoOp& agg) {
  ColumnNeed need(agg.group_by.begin(), agg.group_by.end());
  for (const auto& a : agg.aggregates) {
    if (!a.arg.name.empty()) need.insert(a.arg);
  }
  return need;
}

}  // namespace

Result<ColumnBatch> VectorPlanExecutor::Scan(const std::string& table,
                                             const std::string& alias) {
  return ScanBatch(*data_, table, alias);
}

Result<ColumnBatch> VectorPlanExecutor::Filter(const ColumnBatch& in,
                                               const Predicate& predicate) {
  return FilterBatch(in, predicate, options_.num_threads, options_.morsel_rows);
}

Result<ColumnBatch> VectorPlanExecutor::SideInputBatch(EqId eq,
                                                       const ColumnNeed& need) {
  MQO_ASSIGN_OR_RETURN(PinnedSegment pinned, ReadSegment(eq));
  const std::vector<ColumnRef> cols = NeedAttrs(memo_, eq, need);
  // The projection's COW column handles share the pinned payloads and keep
  // them alive after the pin drops, even if the store later evicts the
  // segment.
  if (pinned.valid()) return ProjectBatch(pinned.batch(), cols);
  MQO_ASSIGN_OR_RETURN(ColumnBatch full, EvaluateClassBatch(memo_->Find(eq)));
  return ProjectBatch(full, cols);
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
  return ProjectBatch(raw, memo_->Attributes(eq));
}

Result<ColumnBatch> VectorPlanExecutor::RunPipelineFor(const PlanNodePtr& plan,
                                                       const MemoOp* agg,
                                                       ColumnNeed need) {
  if (agg != nullptr) need = AggregateNeed(*agg);
  const ColumnNeed sink_need = need;
  // Descend from the pipeline root to its source, recording the operator
  // chain and carrying the running need down it: each join's build side
  // executes with its share, and a breaker at the source (merge join,
  // nested aggregate) executes recursively with what is left.
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
        for (const auto& cmp : op->predicate.conjuncts()) {
          need.insert(cmp.column);
        }
        descs.push_back(std::move(d));
        cur = cur->children[0];
        break;
      }
      case PhysOp::kProject: {
        if (op == nullptr) return Status::Internal("project without op");
        ChainDesc d;
        d.kind = ChainDesc::kProject;
        d.project = &op->project_columns;
        need = ColumnNeed(op->project_columns.begin(),
                          op->project_columns.end());
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
        const EqId probe_eq = cur->children[0]->eq;
        const bool build_child = cur->children.size() > 1;
        const EqId build_eq =
            build_child ? cur->children[1]->eq : op->children[1];
        MQO_ASSIGN_OR_RETURN(JoinNeed split,
                             SplitJoinNeed(memo_, need, probe_eq, build_eq,
                                           op->join_predicate));
        if (build_child) {
          MQO_ASSIGN_OR_RETURN(d.build,
                               ExecuteBatch(cur->children[1], split.right));
        } else {
          // BNL/index probes rescan a base relation or materialized node
          // that is not part of the plan tree.
          MQO_ASSIGN_OR_RETURN(d.build, SideInputBatch(build_eq, split.right));
        }
        need = std::move(split.left);
        d.probe_out = NeedAttrs(memo_, probe_eq, need);
        d.probe_keys = std::move(split.left_keys);
        d.build_keys = std::move(split.right_keys);
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
        // Pipeline breaker (merge join, nested aggregate) or a malformed
        // batch root: execute it whole — ExecuteBatchRaw dispatches these
        // directly, so this never re-enters pipeline compilation for the
        // same node — and stream its output, projected onto the running
        // need. Anything else would loop without progress, so fail loudly
        // instead.
        if (cur->op != PhysOp::kMergeJoin &&
            cur->op != PhysOp::kSortAggregate &&
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

  // Chunk columns: walk the remaining chain top-down again, without the
  // fused filters, to find what the chain reads from the source.
  ColumnNeed required = sink_need;
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
      case ChainDesc::kProbe:
        // The probe emits (its pruned probe-side columns, the pruned build);
        // everything above is satisfied from those.
        required = ColumnNeed(d.probe_out.begin(), d.probe_out.end());
        break;
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
        std::vector<int> probe_keys;
        std::vector<int> build_keys;
        for (size_t k = 0; k < d.probe_keys.size(); ++k) {
          const int i = ColumnIndexIn(schema, d.probe_keys[k]);
          const int j = ColumnIndexIn(d.build.names, d.build_keys[k]);
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
        schema = d.probe_out;
        schema.insert(schema.end(), table->build().names.begin(),
                      table->build().names.end());
        pipeline.ops.push_back(std::make_unique<ProbeChunkOp>(
            std::move(table), std::move(probe_keys), std::move(left_out),
            schema));
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
    const PlanNodePtr& plan, const ColumnNeed& need) {
  const MemoOp* op =
      plan->logical_op >= 0 ? &memo_->op(plan->logical_op) : nullptr;
  switch (plan->op) {
    case PhysOp::kMergeJoin: {
      // Merge joins stay sort-merge (a pipeline breaker) to keep an
      // independently-implemented second join path hot; equi-predicates in
      // BNL/index plans take the pipelined hash probe instead.
      if (op == nullptr) return Status::Internal("join without op");
      const bool right_child = plan->children.size() > 1;
      const EqId right_eq =
          right_child ? plan->children[1]->eq : op->children[1];
      MQO_ASSIGN_OR_RETURN(
          JoinNeed split, SplitJoinNeed(memo_, need, plan->children[0]->eq,
                                        right_eq, op->join_predicate));
      MQO_ASSIGN_OR_RETURN(ColumnBatch left,
                           ExecuteBatch(plan->children[0], split.left));
      ColumnBatch right;
      if (right_child) {
        MQO_ASSIGN_OR_RETURN(right,
                             ExecuteBatch(plan->children[1], split.right));
      } else {
        MQO_ASSIGN_OR_RETURN(right, SideInputBatch(right_eq, split.right));
      }
      return MergeJoinBatch(left, right, op->join_predicate);
    }
    case PhysOp::kSortAggregate: {
      if (op == nullptr) return Status::Internal("aggregate without op");
      // The chain under the aggregate feeds thread-local aggregation states
      // directly (no intermediate materialized batch).
      return RunPipelineFor(plan->children[0], op, {});
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
      return RunPipelineFor(plan, nullptr, need);
  }
  return Status::Internal("unknown physical operator");
}

Result<ColumnBatch> VectorPlanExecutor::ExecuteBatch(const PlanNodePtr& plan,
                                                     const ColumnNeed& need) {
  MQO_ASSIGN_OR_RETURN(ColumnBatch raw, ExecuteBatchRaw(plan, need));
  return ProjectBatch(raw, NeedAttrs(memo_, plan->eq, need));
}

Result<ColumnBatch> VectorPlanExecutor::ExecuteBatch(const PlanNodePtr& plan) {
  const auto& attrs = memo_->Attributes(memo_->Find(plan->eq));
  return ExecuteBatch(plan, ColumnNeed(attrs.begin(), attrs.end()));
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
