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
      layer_(layer),
      materialize_metric_(std::string(layer) + ".materialize_ms") {
  if (options.shared_cache != nullptr) {
    store_ = options.shared_cache->store();
  } else {
    own_store_ = std::make_unique<MatStore>(options.mat_store());
    store_ = own_store_.get();
  }
}

Status ConsolidatedExecutor::ComputeClass(ClassSegment* cls) {
  WallTimer timer;
  MQO_ASSIGN_OR_RETURN(ColumnBatch segment, ComputeSegment(cls->compute_plan));
  cls->compute_ms = timer.ElapsedMillis();
  const double reads_left =
      std::max(cls->expected_reads - static_cast<double>(cls->reads), 0.0);
  cls->segment = store_->Put(std::move(segment), reads_left);
  return Status::OK();
}

Result<PinnedSegment> ConsolidatedExecutor::ReadSegment(EqId eq) {
  auto it = segments_.find(memo_->Find(eq));
  if (it == segments_.end() || !it->second.segment) return PinnedSegment{};
  ClassSegment& cls = it->second;
  Result<PinnedSegment> pinned = store_->Pin(cls.segment);
  if (!pinned.ok()) {
    // The spill file could not be read back: recompute rather than fail.
    MQO_RETURN_NOT_OK(ComputeClass(&cls));
    pinned = store_->Pin(cls.segment);
    MQO_RETURN_NOT_OK(pinned.status());
  }
  ++cls.reads;
  if (pinned.ValueOrDie().reloaded()) ++cls.reloads;
  return pinned;
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
  segments_.clear();
  feedback_.clear();
  cross_batch_hits_ = 0;
  SharedSegmentCache* cache = options_.shared_cache;
  // The stamp on every publish of this run: the versions of the data it is
  // about to read.
  const TableVersions read_versions =
      cache != nullptr ? cache->TableVersionSnapshot() : TableVersions{};
  const std::unordered_map<EqId, double> expected_reads =
      ExpectedSegmentReads(*memo_, plan);
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
  // Take every cache hit before computing anything: a hit's planned reads
  // join its eviction weight first, so no fresh Put of this run pushes it
  // out ahead of its reads.
  for (const auto* m : ordered) {
    const EqId eq = memo_->Find(m->eq);
    ClassSegment& cls = segments_[eq];
    cls.compute_plan = m->compute_plan;
    cls.fingerprint = ClassFingerprint(*memo_, eq, &fingerprints_);
    auto reads = expected_reads.find(eq);
    if (reads != expected_reads.end()) cls.expected_reads = reads->second;
    if (cache == nullptr) continue;
    SegmentRef hit = cache->Lookup(cls.fingerprint);
    // The schema guard rejects a fingerprint collision between classes with
    // different attribute lists.
    if (hit && hit.names() == memo_->Attributes(eq)) {
      store_->AddExpectedReads(hit, cls.expected_reads);
      cls.segment = std::move(hit);
      ++cross_batch_hits_;
    }
  }
  for (const auto* m : ordered) {
    const EqId eq = memo_->Find(m->eq);
    ClassSegment& cls = segments_[eq];
    TraceSpan span(TracerOf(options_.obs), "materialize", layer_);
    ScopedTimer metric(MetricsOf(options_.obs), materialize_metric_);
    const bool hit = static_cast<bool>(cls.segment);
    if (!hit) {
      MQO_RETURN_NOT_OK(ComputeClass(&cls));
      // Publish for later batches. First writer wins; losing the race is
      // harmless.
      if (cache != nullptr) {
        cache->Insert(cls.fingerprint, cls.segment,
                      ClassBaseTables(*memo_, eq), read_versions);
      }
    }
    // Observed cardinality of the shared subexpression: later optimizations
    // match it by structural fingerprint and estimate against reality.
    feedback_.Record(cls.fingerprint, static_cast<double>(cls.segment.rows()));
    if (span.active()) {
      span.AddNum("eq", eq);
      span.AddNum("rows", static_cast<double>(cls.segment.rows()));
      if (hit) {
        span.AddNum("cross_batch_hit", 1);
      } else {
        span.AddNum("bytes", static_cast<double>(cls.segment.bytes()));
      }
    }
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
  for (const auto& [eq, cls] : segments_) {
    if (!cls.segment) continue;
    SegmentRuntime r;
    r.eq = eq;
    r.fingerprint = cls.fingerprint;
    r.actual_rows = cls.segment.rows();
    r.compute_ms = cls.compute_ms;
    r.reads = cls.reads;
    r.reloads = cls.reloads;
    r.bytes = static_cast<int64_t>(cls.segment.bytes());
    // This run found the segment on disk, or left it there.
    r.ever_spilled = cls.reloads > 0 || !store_->IsResident(cls.segment);
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentRuntime& a, const SegmentRuntime& b) {
              return a.eq < b.eq;
            });
  return out;
}

}  // namespace mqo
