#include "exec/consolidated_executor.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/obs.h"

namespace mqo {

ConsolidatedExecutor::ConsolidatedExecutor(Memo* memo,
                                           const ExecOptions& options,
                                           const char* layer)
    : memo_(memo),
      options_(options),
      store_(options.mat_store()),
      layer_(layer),
      materialize_metric_(std::string(layer) + ".materialize_ms") {}

Status ConsolidatedExecutor::MaterializeNode(
    EqId eq, const PlanNodePtr& compute_plan,
    const TableVersions& read_versions,
    const std::unordered_map<EqId, double>& expected_reads) {
  TraceSpan span(TracerOf(options_.obs), "materialize", layer_);
  ScopedTimer metric(MetricsOf(options_.obs), materialize_metric_);
  eq = memo_->Find(eq);
  const uint64_t fp = ClassFingerprint(*memo_, eq, &fingerprints_);
  SharedSegmentCache* cache = options_.shared_cache;
  ColumnBatch segment;
  // The schema guard rejects a fingerprint collision between classes with
  // different attribute lists.
  const bool hit = cache != nullptr && cache->Lookup(fp, &segment) &&
                   segment.names == memo_->Attributes(eq);
  if (hit) {
    compute_ms_[eq] = 0.0;
    ++cross_batch_hits_;
  } else {
    WallTimer timer;
    MQO_ASSIGN_OR_RETURN(segment, ComputeSegment(compute_plan));
    compute_ms_[eq] = timer.ElapsedMillis();
  }
  // Observed cardinality of the shared subexpression: later optimizations
  // match it by structural fingerprint and estimate against reality.
  feedback_.Record(fp, static_cast<double>(segment.num_rows));
  if (span.active()) {
    span.AddNum("eq", eq);
    span.AddNum("rows", static_cast<double>(segment.num_rows));
    if (hit) {
      span.AddNum("cross_batch_hit", 1);
    } else {
      span.AddNum("bytes", static_cast<double>(segment.ByteSize()));
    }
  }
  if (cache != nullptr && !hit) {
    // Publish for later batches (COW copy: shares payloads, no deep copy).
    // First writer wins; losing the race or failing admission is harmless.
    auto reads = expected_reads.find(eq);
    cache->Insert(fp, ColumnBatch(segment), ClassBaseTables(*memo_, eq),
                  read_versions,
                  reads == expected_reads.end() ? 0.0 : reads->second);
  }
  return store_.Put(eq, std::move(segment));
}

Result<std::vector<NamedRows>> ConsolidatedExecutor::ExecuteConsolidated(
    const ConsolidatedPlan& plan) {
  TraceSpan batch_span(TracerOf(options_.obs), "execute_consolidated", layer_);
  if (batch_span.active()) {
    batch_span.AddNum("materialized",
                      static_cast<double>(plan.materialized.size()));
    batch_span.AddNum("queries",
                      static_cast<double>(plan.root_plan->children.size()));
  }
  feedback_.clear();
  compute_ms_.clear();
  cross_batch_hits_ = 0;
  // The stamp on every publish of this run: the versions of the data it is
  // about to read.
  const TableVersions read_versions =
      options_.shared_cache != nullptr
          ? options_.shared_cache->TableVersionSnapshot()
          : TableVersions{};
  // Seed the eviction weights before any segment lands: a segment with many
  // reads still ahead of it is the last one the budget pushes to disk.
  const std::unordered_map<EqId, double> expected_reads =
      ExpectedSegmentReads(*memo_, plan);
  for (const auto& [eq, reads] : expected_reads) {
    store_.SetExpectedReads(eq, reads);
  }
  // Materialize chosen nodes children-first (a node's compute plan may read
  // materialized descendants).
  std::vector<EqId> topo = memo_->TopologicalClasses();
  auto position = [&](EqId e) {
    e = memo_->Find(e);
    for (size_t i = 0; i < topo.size(); ++i) {
      if (topo[i] == e) return i;
    }
    return topo.size();
  };
  std::vector<const ConsolidatedPlan::MatNode*> ordered;
  for (const auto& m : plan.materialized) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [&](const ConsolidatedPlan::MatNode* a,
                const ConsolidatedPlan::MatNode* b) {
              return position(a->eq) < position(b->eq);
            });
  for (const auto* m : ordered) {
    MQO_RETURN_NOT_OK(MaterializeNode(m->eq, m->compute_plan, read_versions,
                                      expected_reads));
  }
  if (plan.root_plan->op != PhysOp::kBatchRoot) {
    return Status::InvalidArgument("root plan is not a batch root");
  }
  std::vector<NamedRows> results;
  for (const auto& child : plan.root_plan->children) {
    TraceSpan query_span(TracerOf(options_.obs), "query", layer_);
    MQO_ASSIGN_OR_RETURN(NamedRows rows, Execute(child));
    if (query_span.active()) {
      query_span.AddNum("index", static_cast<double>(results.size()));
      query_span.AddNum("rows", static_cast<double>(rows.rows.size()));
    }
    results.push_back(std::move(rows));
  }
  return results;
}

std::vector<SegmentRuntime> ConsolidatedExecutor::SegmentRuntimes() const {
  std::vector<SegmentRuntime> out;
  for (const auto& [key, t] : store_.Telemetry()) {
    const EqId eq = static_cast<EqId>(key);
    SegmentRuntime r;
    r.eq = eq;
    auto fp = fingerprints_.find(eq);
    if (fp != fingerprints_.end()) r.fingerprint = fp->second;
    r.actual_rows = t.rows;
    auto cm = compute_ms_.find(eq);
    if (cm != compute_ms_.end()) r.compute_ms = cm->second;
    r.reads = t.reads;
    r.reloads = t.reloads;
    r.bytes = static_cast<int64_t>(t.bytes);
    r.ever_spilled = t.ever_spilled;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentRuntime& a, const SegmentRuntime& b) {
              return a.eq < b.eq;
            });
  return out;
}

}  // namespace mqo
