#include "vexec/pipeline.h"

#include <algorithm>

#include "obs/obs.h"
#include "vexec/vector_ops.h"

namespace mqo {

namespace {

/// Per-operator row/time accounting one worker accumulates while tracing.
/// Sums across workers are independent of the morsel->worker assignment, so
/// the merged counts are deterministic for every thread count.
struct OpCounters {
  int64_t in_rows = 0;
  int64_t out_rows = 0;
  int64_t ns = 0;
};

/// One worker's sink state: collected chunks keyed by morsel index (collect
/// sink) or a thread-local aggregation accumulator (aggregate sink), plus
/// the first error the worker hit. The trace fields are only touched when
/// tracing is on, keeping the disabled hot path unchanged.
struct WorkerState {
  std::vector<std::pair<size_t, ColumnBatch>> chunks;
  AggAccumulator agg;
  Status status;
  int64_t bloom_rows_pruned = 0;    ///< Deterministic across thread counts.
  int64_t bloom_morsels_pruned = 0; ///< Depends on morsel bounds: obs only.
  int64_t compressed_cmp_rows = 0;  ///< Per-block counts: deterministic.
  size_t morsels = 0;            ///< Tracing only.
  int64_t source_rows = 0;       ///< Tracing only: rows entering the chain.
  std::vector<OpCounters> ops;   ///< Tracing only, sized lazily.
};

/// Materializes the kept source columns at `sel` into a chunk.
ColumnBatch GatherColumns(const ColumnBatch& src, const std::vector<int>& keep,
                          const std::vector<ColumnRef>& names,
                          const SelVector& sel) {
  ColumnBatch out;
  out.names = names;
  out.columns.reserve(keep.size());
  for (int c : keep) out.columns.push_back(src.columns[c].Gather(sel));
  out.num_rows = sel.size();
  return out;
}

}  // namespace

Result<ColumnBatch> FilterChunkOp::Process(ColumnBatch chunk) const {
  SelVector sel;
  FilterRangeInto(chunk, conjuncts_, col_idx_, 0,
                  static_cast<uint32_t>(chunk.num_rows), &sel);
  return chunk.Gather(sel);
}

Result<ColumnBatch> ProjectChunkOp::Process(ColumnBatch chunk) const {
  ColumnBatch out;
  out.names = names_;
  out.columns.reserve(col_idx_.size());
  for (int c : col_idx_) out.columns.push_back(chunk.columns[c]);
  out.num_rows = chunk.num_rows;
  return out;
}

Result<ColumnBatch> ProbeChunkOp::Process(ColumnBatch chunk) const {
  SelVector left_rows;
  SelVector right_rows;
  // Resolve the key columns (dictionary remaps included) once per chunk,
  // then probe every row through the prepared plan.
  const JoinHashTable::PreparedProbe prepared =
      table_->Prepare(chunk, probe_key_idx_);
  if (prepared.dict_keys > 0 && chunk.num_rows > 0) {
    dict_rows_.fetch_add(static_cast<int64_t>(chunk.num_rows),
                         std::memory_order_relaxed);
  }
  for (uint32_t r = 0; r < chunk.num_rows; ++r) {
    const size_t before = right_rows.size();
    table_->ProbeWith(prepared, chunk, probe_key_idx_, r, &right_rows);
    for (size_t k = before; k < right_rows.size(); ++k) left_rows.push_back(r);
  }
  ColumnBatch out;
  out.names = out_names_;
  out.columns.reserve(left_out_idx_.size() + table_->build().columns.size());
  for (int c : left_out_idx_) {
    out.columns.push_back(chunk.columns[c].Gather(left_rows));
  }
  for (const auto& col : table_->build().columns) {
    out.columns.push_back(col.Gather(right_rows));
  }
  out.num_rows = left_rows.size();
  return out;
}

void ProbeChunkOp::FlushMetrics(MetricsRegistry* metrics) const {
  const int64_t rows = dict_rows_.exchange(0, std::memory_order_relaxed);
  if (rows > 0) {
    metrics->AddCounter("vexec.dict_hits", static_cast<double>(rows));
  }
  const int64_t built = table_->remap_builds();
  const int64_t delta =
      built - remap_reported_.exchange(built, std::memory_order_relaxed);
  if (delta > 0) {
    metrics->AddCounter("vexec.dict_remap", static_cast<double>(delta));
  }
}

namespace {

/// Emits the "pipeline" span and nested per-operator spans after a traced
/// run. Counts are sums over workers, so they are identical for every thread
/// count and morsel size; the per-op span durations are the summed
/// worker-side Process times, clamped into the pipeline window so spans nest
/// (the true unclamped total rides along as the self_ms arg).
void EmitPipelineTrace(Tracer* tracer, const VecPipeline& pipeline,
                       const std::vector<WorkerState>& states,
                       int64_t start_ns, int64_t out_rows, int num_workers) {
  const int64_t end_ns = MonotonicNanos();
  size_t morsels = 0;
  int64_t source_rows = 0;
  std::vector<OpCounters> totals(pipeline.ops.size());
  for (const WorkerState& s : states) {
    morsels += s.morsels;
    source_rows += s.source_rows;
    for (size_t i = 0; i < s.ops.size() && i < totals.size(); ++i) {
      totals[i].in_rows += s.ops[i].in_rows;
      totals[i].out_rows += s.ops[i].out_rows;
      totals[i].ns += s.ops[i].ns;
    }
  }
  const int64_t window = end_ns - start_ns;
  for (size_t i = 0; i < totals.size(); ++i) {
    tracer->Emit(std::string("op.") + pipeline.ops[i]->name(), "vexec",
                 start_ns, std::min(totals[i].ns, window),
                 {TNum("in_rows", static_cast<double>(totals[i].in_rows)),
                  TNum("out_rows", static_cast<double>(totals[i].out_rows)),
                  TNum("self_ms", NanosToMillis(totals[i].ns)),
                  TNum("op_index", static_cast<double>(i))});
  }
  std::vector<TraceArg> args = {
      TNum("src_rows", static_cast<double>(pipeline.source.num_rows)),
      TNum("source_rows", static_cast<double>(source_rows)),
      TNum("out_rows", static_cast<double>(out_rows)),
      TNum("morsels", static_cast<double>(morsels)),
      TNum("workers", num_workers),
      TNum("ops", static_cast<double>(pipeline.ops.size())),
      TNum("aggregate", pipeline.aggregate ? 1 : 0)};
  if (!pipeline.label.empty()) {
    args.push_back(TStr("label", pipeline.label));
  }
  tracer->Emit("pipeline", "vexec", start_ns, window, std::move(args));
}

}  // namespace

Result<ColumnBatch> RunVecPipeline(const VecPipeline& pipeline,
                                   const ExecOptions& options) {
  Tracer* raw_tracer = TracerOf(options.obs);
  Tracer* tracer = raw_tracer && raw_tracer->enabled() ? raw_tracer : nullptr;
  if (pipeline.source_filters.empty() && pipeline.ops.empty() &&
      !pipeline.aggregate) {
    // Pure column projection of the source: zero-copy (COW handles).
    ColumnBatch out;
    out.names = pipeline.chunk_names;
    out.columns.reserve(pipeline.keep_idx.size());
    for (int c : pipeline.keep_idx) out.columns.push_back(pipeline.source.columns[c]);
    out.num_rows = pipeline.source.num_rows;
    if (tracer) {
      std::vector<TraceArg> args = {
          TNum("src_rows", static_cast<double>(pipeline.source.num_rows)),
          TNum("out_rows", static_cast<double>(out.num_rows)),
          TNum("zero_copy", 1)};
      if (!pipeline.label.empty()) args.push_back(TStr("label", pipeline.label));
      tracer->Instant("pipeline.zero_copy", "vexec", std::move(args));
    }
    return out;
  }

  const int64_t start_ns = tracer ? MonotonicNanos() : 0;

  // Zone-map scan skipping: resolve the pruned-zone set serially from the
  // source columns' persisted per-zone min/max before any worker starts.
  // Zones partition the row space at the fixed codec granule (never the
  // adaptive morsel size), so the pruned set — and the counter derived from
  // it — is identical at every thread count. Pruning is conservative: a
  // pruned zone contains no row passing the excluding conjunct, so the
  // surviving row set is unchanged.
  std::vector<char> zone_pruned;
  int64_t zones_pruned = 0;
  if (options.zone_maps) {
    for (size_t c = 0; c < pipeline.source_filters.size(); ++c) {
      const Comparison& cmp = pipeline.source_filters[c];
      if (!cmp.literal.is_number()) continue;
      const ColumnVector& col =
          pipeline.source.columns[pipeline.source_filter_idx[c]];
      if (!col.is_numeric()) continue;
      const std::shared_ptr<const ZoneMap>& zm = col.zone_map();
      // Staleness guard: a zone map only prunes when it covers exactly the
      // source's current rows.
      if (zm == nullptr || zm->num_rows != pipeline.source.num_rows) continue;
      if (zone_pruned.empty()) zone_pruned.assign(zm->zones.size(), 0);
      const double lit = cmp.literal.number();
      for (size_t z = 0; z < zm->zones.size(); ++z) {
        if (zone_pruned[z] == 0 && ZoneExcludes(zm->zones[z].min,
                                                zm->zones[z].max, cmp.op,
                                                lit)) {
          zone_pruned[z] = 1;
        }
      }
    }
    for (char p : zone_pruned) zones_pruned += p;
  }

  const JoinBloomFilter* bloom = pipeline.bloom.get();
  const bool bloom_zone =
      bloom != nullptr && bloom->has_range() &&
      pipeline.bloom_key_idx.size() == 1 &&
      pipeline.source.columns[pipeline.bloom_key_idx[0]].is_numeric();
  auto process = [&pipeline, &zone_pruned, tracer, bloom,
                  bloom_zone](WorkerState& state, size_t m,
                              const Morsel& morsel) {
    if (!state.status.ok()) return;
    SelVector sel;
    if (pipeline.source_filters.empty()) {
      sel.reserve(morsel.size());
      for (uint32_t r = morsel.begin; r < morsel.end; ++r) sel.push_back(r);
    } else if (!zone_pruned.empty()) {
      // Zone-aligned scan: walk the morsel in zone-granule subranges,
      // skipping pruned zones entirely. Subranges are disjoint and
      // ascending, so concatenating their selections preserves row order
      // (FilterRangeInto swaps its output, hence the temporary).
      SelVector part;
      for (uint32_t zb = morsel.begin; zb < morsel.end;) {
        const size_t z = zb / kForBlockRows;
        const uint32_t ze = std::min<uint32_t>(
            morsel.end, static_cast<uint32_t>((z + 1) * kForBlockRows));
        if (zone_pruned[z] == 0) {
          part.clear();
          FilterRangeInto(pipeline.source, pipeline.source_filters,
                          pipeline.source_filter_idx, zb, ze, &part,
                          &state.compressed_cmp_rows);
          sel.insert(sel.end(), part.begin(), part.end());
        }
        zb = ze;
      }
    } else {
      FilterRangeInto(pipeline.source, pipeline.source_filters,
                      pipeline.source_filter_idx, morsel.begin, morsel.end,
                      &sel, &state.compressed_cmp_rows);
    }
    if (bloom != nullptr && !sel.empty()) {
      if (bloom_zone) {
        // Zone shortcut: if the morsel's key range misses the build range
        // entirely, every surviving row would fail the per-row range check
        // below — clearing the selection only skips that per-row work, so
        // the surviving row set stays a pure per-row function.
        const ColumnVector& key =
            pipeline.source.columns[pipeline.bloom_key_idx[0]];
        double lo = 0.0;
        double hi = 0.0;
        NumericMinMax(key, morsel.begin, morsel.end, &lo, &hi);
        if (hi < bloom->min_key() || lo > bloom->max_key()) {
          ++state.bloom_morsels_pruned;
          state.bloom_rows_pruned += static_cast<int64_t>(sel.size());
          sel.clear();
        }
      }
      if (!sel.empty()) {
        state.bloom_rows_pruned += static_cast<int64_t>(
            BloomRefineSel(pipeline.source, pipeline.bloom_key_idx, *bloom,
                           bloom_zone, &sel));
      }
    }
    ColumnBatch chunk =
        GatherColumns(pipeline.source, pipeline.keep_idx, pipeline.chunk_names,
                      sel);
    if (tracer) {
      ++state.morsels;
      state.source_rows += static_cast<int64_t>(chunk.num_rows);
      if (state.ops.size() != pipeline.ops.size()) {
        state.ops.resize(pipeline.ops.size());
      }
    }
    for (size_t i = 0; i < pipeline.ops.size(); ++i) {
      const auto& op = pipeline.ops[i];
      const int64_t op_start_ns = tracer ? MonotonicNanos() : 0;
      const int64_t in_rows = static_cast<int64_t>(chunk.num_rows);
      auto next = op->Process(std::move(chunk));
      if (!next.ok()) {
        state.status = next.status();
        return;
      }
      chunk = std::move(next).ValueOrDie();
      if (tracer) {
        OpCounters& c = state.ops[i];
        c.in_rows += in_rows;
        c.out_rows += static_cast<int64_t>(chunk.num_rows);
        c.ns += MonotonicNanos() - op_start_ns;
      }
    }
    if (pipeline.aggregate) {
      // Chunk rows get pipeline positions (m << 32) + r: strictly increasing
      // across morsels, identical for every thread count.
      state.agg.Consume(chunk, pipeline.agg_group_idx, pipeline.agg_arg_idx,
                        pipeline.agg_aggs, static_cast<uint64_t>(m) << 32);
    } else {
      state.chunks.emplace_back(m, std::move(chunk));
    }
  };

  std::vector<WorkerState> states;
  if (pipeline.source.num_rows == 0) {
    // One synthetic empty morsel keeps typed (empty) columns flowing through
    // the chain and lets the aggregate sink emit its identity row.
    states.resize(1);
    process(states[0], 0, Morsel{0, 0});
  } else {
    states = RunPipeline<WorkerState>(pipeline.source.num_rows,
                                      options.pipeline(), process);
  }
  for (const auto& state : states) MQO_RETURN_NOT_OK(state.status);

  Result<ColumnBatch> result = [&]() -> Result<ColumnBatch> {
    if (pipeline.aggregate) {
      AggAccumulator merged = std::move(states[0].agg);
      for (size_t s = 1; s < states.size(); ++s) {
        merged.MergeFrom(states[s].agg, pipeline.agg_aggs);
      }
      return merged.Finish(pipeline.agg_group_by, pipeline.agg_aggs,
                           pipeline.agg_renames);
    }
    std::vector<std::pair<size_t, ColumnBatch>> ordered;
    for (auto& state : states) {
      for (auto& entry : state.chunks) ordered.push_back(std::move(entry));
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const std::pair<size_t, ColumnBatch>& a,
                 const std::pair<size_t, ColumnBatch>& b) {
                return a.first < b.first;
              });
    std::vector<ColumnBatch> chunks;
    chunks.reserve(ordered.size());
    for (auto& entry : ordered) chunks.push_back(std::move(entry.second));
    return ConcatBatches(std::move(chunks), pipeline.final_names(),
                         options.num_threads);
  }();

  if (tracer && result.ok()) {
    EmitPipelineTrace(tracer, pipeline, states, start_ns,
                      static_cast<int64_t>(result.ValueOrDie().num_rows),
                      options.num_threads);
  }
  if (MetricsRegistry* m = MetricsOf(options.obs)) {
    m->AddCounter("vexec.pipelines");
    if (result.ok()) {
      m->AddCounter("vexec.rows_out",
                    static_cast<double>(result.ValueOrDie().num_rows));
    }
    if (bloom != nullptr) {
      int64_t rows_pruned = 0;
      int64_t morsels_pruned = 0;
      for (const WorkerState& state : states) {
        rows_pruned += state.bloom_rows_pruned;
        morsels_pruned += state.bloom_morsels_pruned;
      }
      m->AddCounter("vexec.bloom_rows_pruned",
                    static_cast<double>(rows_pruned));
      m->AddCounter("vexec.bloom_morsels_pruned",
                    static_cast<double>(morsels_pruned));
    }
    if (!zone_pruned.empty()) {
      // Zone granule == default morsel granule; the pruned-zone set is
      // resolved serially above, so this count is thread-invariant.
      m->AddCounter("vexec.zone_morsels_pruned",
                    static_cast<double>(zones_pruned));
    }
    int64_t for_blocks = 0;
    for (const ColumnVector& col : pipeline.source.columns) {
      if (col.for_encoded()) {
        for_blocks += static_cast<int64_t>(col.for_column()->blocks().size());
      }
    }
    if (for_blocks > 0) {
      m->AddCounter("vexec.for_blocks", static_cast<double>(for_blocks));
    }
    int64_t compressed_rows = 0;
    for (const WorkerState& state : states) {
      compressed_rows += state.compressed_cmp_rows;
    }
    if (compressed_rows > 0) {
      m->AddCounter("vexec.compressed_cmp_rows",
                    static_cast<double>(compressed_rows));
    }
    if (pipeline.aggregate) {
      int64_t dict_rows = 0;
      for (const WorkerState& state : states) {
        dict_rows += state.agg.dict_hit_rows();
      }
      if (dict_rows > 0) {
        m->AddCounter("vexec.dict_hits", static_cast<double>(dict_rows));
      }
    }
    for (const auto& op : pipeline.ops) op->FlushMetrics(m);
  }
  return result;
}

}  // namespace mqo
