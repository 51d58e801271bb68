#include "optimizer/batch_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "obs/obs.h"
#include "stats/feedback.h"

namespace mqo {

int ResolveOptimizerThreads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MQO_OPT_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<int>(v);
    if (env[0] != '\0') {
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "MQO_OPT_THREADS='%s' not recognized (want a positive "
                     "integer); running the optimizer serially\n",
                     env);
      }
    }
  }
  return 1;
}

bool CostCache::Get(uint64_t hash, const std::set<EqId>& set,
                    std::pair<double, double>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(hash);
  if (it == buckets_.end()) return false;
  for (const Entry& e : it->second) {
    if (e.set == set) {
      *out = e.cost;
      return true;
    }
  }
  return false;
}

void CostCache::Put(uint64_t hash, const std::set<EqId>& set,
                    std::pair<double, double> value) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry>& bucket = buckets_[hash];
  for (const Entry& e : bucket) {
    if (e.set == set) return;  // first writer wins; values are identical
  }
  bucket.push_back(Entry{set, value});
}

BatchOptimizer::BatchOptimizer(Memo* memo, CostModel cost_model,
                               BatchOptimizerOptions options)
    : memo_(memo), cm_(cost_model), options_(options), stats_(memo, options.stats) {
  assert(memo_->root() >= 0 && "InsertBatch must run before optimization");
  options_.num_threads = ResolveOptimizerThreads(options_.num_threads);
  if (options_.num_threads > 1) PrewarmSharedCaches();
  index_ = std::make_shared<SearchIndex>(*memo_, &stats_);
  if (options_.cached_fingerprints != nullptr &&
      !options_.cached_fingerprints->empty()) {
    // Resolve the cross-batch cache's fingerprints against this memo once;
    // evaluations then consult an immutable per-class set (thread-safe
    // without the fingerprint cache's mutation).
    std::unordered_map<EqId, uint64_t> fp_cache;
    for (EqId c : memo_->TopologicalClasses()) {
      if (options_.cached_fingerprints->count(
              ClassFingerprint(*memo_, c, &fp_cache)) > 0) {
        cached_classes_.insert(memo_->Find(c));
      }
    }
  }
}

void BatchOptimizer::PrewarmSharedCaches() {
  // After this, worker threads only ever *read* the shared per-class state:
  // union-find links are fully compressed (Find stops writing) and every
  // class's statistics — and the memo attribute sets they derive from — are
  // resident, so concurrent ClassStats calls are pure cache hits.
  memo_->CompressPaths();
  for (EqId c : memo_->TopologicalClasses()) (void)stats_.ClassStats(c);
}

const std::set<EqId>& BatchOptimizer::Canonical(
    const std::set<EqId>& mat, std::set<EqId>* copy) const {
  bool canonical = true;
  for (EqId e : mat) {
    if (memo_->Find(e) != e) {
      canonical = false;
      break;
    }
  }
  if (canonical) return mat;
  copy->clear();
  for (EqId e : mat) copy->insert(memo_->Find(e));
  return *copy;
}

uint64_t BatchOptimizer::SetKey(const std::set<EqId>& canonical) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (EqId e : canonical) h = HashCombine(h, static_cast<uint64_t>(e));
  return h;
}

std::pair<double, double> BatchOptimizer::Evaluate(PlanSearch* search,
                                                   const std::set<EqId>& mat) {
  const int64_t costings_before = search->num_costings();
  PlanNodePtr root = search->UsePlan(memo_->root(), {});
  assert(root != nullptr);
  double buc = root->total_cost;
  double bc = buc;
  for (EqId e : mat) {
    // A class already resident in the cross-batch cache costs nothing to
    // materialize: the executor serves it without recomputation or a write.
    if (IsCachedClass(e)) continue;
    PlanNodePtr compute = search->ComputePlan(e, {});
    assert(compute != nullptr);
    bc += compute->total_cost + search->WriteCost(e);
  }
  num_costings_.fetch_add(search->num_costings() - costings_before,
                          std::memory_order_relaxed);
  return {bc, buc};
}

namespace {

/// Returns the single differing element if |a Δ b| == 1, else -1. `added` is
/// set to true when the element is in `a` but not `b`. One merge pass over
/// the two ordered sets.
EqId SymmetricDiffOne(const std::set<EqId>& a, const std::set<EqId>& b,
                      bool* added) {
  if (a.size() != b.size() + 1 && b.size() != a.size() + 1) return -1;
  EqId diff = -1;
  bool in_a = false;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && *ia < *ib)) {
      if (diff >= 0) return -1;
      diff = *ia++;
      in_a = true;
    } else if (ia == a.end() || *ib < *ia) {
      if (diff >= 0) return -1;
      diff = *ib++;
      in_a = false;
    } else {
      ++ia;
      ++ib;
    }
  }
  *added = in_a;
  return diff;
}

}  // namespace

void BatchOptimizer::SetIncrementalBase(const std::set<EqId>& mat) {
  if (!options_.incremental) return;
  // Only the pinned base and its overlays read cones, so runs that never pin
  // one skip computing them. No search runs during this call (see the class
  // comment), so filling the shared index here is race-free.
  if (!index_->has_cones()) index_->BuildCones(*memo_);
  std::set<EqId> copy;
  const std::set<EqId>& s = Canonical(mat, &copy);
  if (base_ != nullptr && base_->materialized() == s) return;
  bool added = false;
  const EqId delta =
      base_ != nullptr ? SymmetricDiffOne(s, base_->materialized(), &added) : -1;
  if (delta >= 0) {
    // One pick away from the pinned base: toggle it in place, dropping only
    // the toggled node's cone. No overlay is alive between rounds, so
    // nothing reads the base while it changes.
    base_->ToggleMaterialized(delta, added);
  } else {
    base_ = std::make_unique<PlanSearch>(memo_, &stats_, cm_, s,
                                         options_.search, index_);
  }
  (void)Evaluate(base_.get(), s);  // warm the caches overlays fall through to
}

double BatchOptimizer::BestCost(const std::set<EqId>& mat) {
  std::set<EqId> copy;
  const std::set<EqId>& s = Canonical(mat, &copy);
  const uint64_t key = SetKey(s);
  std::pair<double, double> result;
  if (cache_.Get(key, s, &result)) return result.first;

  num_optimizations_.fetch_add(1, std::memory_order_relaxed);
  TraceSpan span(TracerOf(options_.obs), "plan_search", "optimizer");
  ScopedTimer timer(MetricsOf(options_.obs), "optimizer.plan_search_ms");

  // Delta against the pinned base: -1 = same set, >= 0 = the toggled node,
  // kNoDelta = not within one toggle (fresh full search).
  constexpr EqId kNoDelta = -2;
  EqId delta = kNoDelta;
  bool added = false;
  if (options_.incremental && base_ != nullptr) {
    if (base_->materialized() == s) {
      delta = -1;
    } else {
      const EqId one = SymmetricDiffOne(s, base_->materialized(), &added);
      if (one >= 0) delta = one;
    }
  }

  const bool incremental_call = delta != kNoDelta;
  int64_t call_costings = 0;
  int64_t cone_classes = 0;
  int64_t reuse_hits = 0;
  if (incremental_call) {
    // Cone-scoped overlay: recompute only delta's precomputed ancestor cone,
    // serve the rest from the pinned base. Call-local, so worker threads
    // never share mutable search state.
    PlanSearch overlay(base_.get(), delta, added);
    result = Evaluate(&overlay, s);
    call_costings = overlay.num_costings();
    cone_classes = overlay.cone_size();
    reuse_hits = overlay.reuse_hits();
    if (options_.verify_cone) {
      PlanSearch fresh(memo_, &stats_, cm_, s, options_.search, index_);
      PlanNodePtr root = fresh.UsePlan(memo_->root(), {});
      double buc = root->total_cost;
      double bc = buc;
      for (EqId e : s) {
        if (IsCachedClass(e)) continue;  // mirror Evaluate's zero-cost skip
        PlanNodePtr compute = fresh.ComputePlan(e, {});
        bc += compute->total_cost + fresh.WriteCost(e);
      }
      const double tol = 1e-9 * std::max({1.0, std::abs(bc), std::abs(buc)});
      if (std::abs(bc - result.first) > tol ||
          std::abs(buc - result.second) > tol) {
        std::fprintf(stderr,
                     "verify_cone: cone-scoped bc/buc (%.17g, %.17g) != fresh "
                     "full search (%.17g, %.17g) for |S|=%zu\n",
                     result.first, result.second, bc, buc, s.size());
        std::abort();
      }
    }
  } else {
    PlanSearch local(memo_, &stats_, cm_, s, options_.search, index_);
    result = Evaluate(&local, s);
    call_costings = local.num_costings();
  }
  if (incremental_call) {
    num_incremental_.fetch_add(1, std::memory_order_relaxed);
  }
  cache_.Put(key, s, result);

  if (span.active()) {
    span.AddNum("mat_set_size", static_cast<double>(s.size()));
    span.AddNum("incremental", incremental_call ? 1 : 0);
    span.AddNum("costings", static_cast<double>(call_costings));
    span.AddNum("cone_classes", static_cast<double>(cone_classes));
    span.AddNum("bc", result.first);
    span.AddNum("buc", result.second);
  }
  if (MetricsRegistry* m = MetricsOf(options_.obs)) {
    m->AddCounter("optimizer.plan_searches");
    if (incremental_call) m->AddCounter("optimizer.incremental_reuses");
    m->AddCounter("optimizer.costings", static_cast<double>(call_costings));
    if (cone_classes > 0) {
      m->AddCounter("optimizer.cone_classes", static_cast<double>(cone_classes));
    }
    if (reuse_hits > 0) {
      m->AddCounter("optimizer.search_reuse_hits",
                    static_cast<double>(reuse_hits));
    }
  }
  return result.first;
}

double BatchOptimizer::BestUseCost(const std::set<EqId>& mat) {
  std::set<EqId> copy;
  const std::set<EqId>& s = Canonical(mat, &copy);
  const uint64_t key = SetKey(s);
  std::pair<double, double> cached;
  if (!cache_.Get(key, s, &cached)) {
    BestCost(mat);
    const bool hit = cache_.Get(key, s, &cached);
    assert(hit);
    (void)hit;
  }
  return cached.second;
}

ConsolidatedPlan BatchOptimizer::Plan(const std::set<EqId>& mat) {
  std::set<EqId> copy;
  const std::set<EqId>& s = Canonical(mat, &copy);
  PlanSearch search(memo_, &stats_, cm_, s, options_.search, index_);
  search.AnnotatePlans();
  ConsolidatedPlan out;
  out.root_plan = search.UsePlan(memo_->root(), {});
  assert(out.root_plan != nullptr);
  out.best_use_cost = out.root_plan->total_cost;
  out.best_cost = out.best_use_cost;
  for (EqId e : s) {
    ConsolidatedPlan::MatNode node;
    node.eq = e;
    node.compute_plan = search.ComputePlan(e, {});
    assert(node.compute_plan != nullptr);
    if (IsCachedClass(e)) {
      // Zero-cost cached class (mirrors Evaluate): the compute plan stays as
      // the executor's fallback for a cache miss at execution time (the
      // segment may have been invalidated or evicted in between), but the
      // reported bc charges neither compute nor write.
      node.write_cost = 0.0;
    } else {
      node.write_cost = search.WriteCost(e);
      out.best_cost += node.compute_plan->total_cost + node.write_cost;
    }
    out.materialized.push_back(std::move(node));
  }
  out.mat_cost = out.best_cost - out.best_use_cost;
  return out;
}

double BatchOptimizer::StandaloneMatCost(EqId eq) {
  PlanSearch search(memo_, &stats_, cm_, {}, SearchOptions{}, index_);
  PlanNodePtr compute = search.ComputePlan(memo_->Find(eq), {});
  assert(compute != nullptr);
  return compute->total_cost + search.WriteCost(eq);
}

double BatchOptimizer::MatFootprintBytes(EqId eq) {
  return stats_.ClassStats(memo_->Find(eq)).SizeBytes();
}

namespace {

void CountSegmentReads(const Memo& memo, const PlanNodePtr& plan,
                       const std::set<EqId>& materialized,
                       std::unordered_map<EqId, double>* reads) {
  if (plan == nullptr) return;
  if (plan->op == PhysOp::kReadMaterialized) {
    (*reads)[memo.Find(plan->eq)] += 1.0;
  } else if (plan->logical_op >= 0 && plan->children.size() == 1 &&
             (plan->op == PhysOp::kBlockNLJoin ||
              plan->op == PhysOp::kIndexNLJoin ||
              plan->op == PhysOp::kMergeJoin)) {
    // A join whose inner side is not a plan child rescans it as a side
    // input; the executors serve that from the store when materialized.
    const MemoOp& op = memo.op(plan->logical_op);
    const EqId inner = memo.Find(op.children[1]);
    if (materialized.count(inner) > 0) (*reads)[inner] += 1.0;
  }
  for (const PlanNodePtr& child : plan->children) {
    CountSegmentReads(memo, child, materialized, reads);
  }
}

}  // namespace

std::unordered_map<EqId, double> ExpectedSegmentReads(
    const Memo& memo, const ConsolidatedPlan& plan) {
  std::set<EqId> materialized;
  for (const auto& m : plan.materialized) materialized.insert(memo.Find(m.eq));
  std::unordered_map<EqId, double> reads;
  CountSegmentReads(memo, plan.root_plan, materialized, &reads);
  for (const auto& m : plan.materialized) {
    CountSegmentReads(memo, m.compute_plan, materialized, &reads);
  }
  return reads;
}

}  // namespace mqo
