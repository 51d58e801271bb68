// bestCost / bestUseCost over the combined query DAG (Section 2.2/2.4).
//
// For a set S of equivalence nodes to materialize:
//   bestUseCost(Q, S) = cost of the best plan for the batch root where any
//                       node of S may be read from disk (buc in the paper),
//   bestCost(Q, S)    = buc(S) + the cost of computing and writing out every
//                       node of S (each node's own plan may read other
//                       materialized nodes below it),
//   mb(S)             = bestCost(Q, ∅) − bestCost(Q, S), the materialization
//                       benefit the MQO algorithms maximize.
//
// The oracle is safe to call from the worker pool: the greedy drivers fan a
// round's candidate evaluations across threads (submodular/algorithms.cc),
// and every Costs call either hits the concurrent cost cache or builds a
// call-local search — a cone-scoped overlay over the pinned incremental base
// when the set differs by one element, a fresh full search otherwise. The
// memo and statistics caches are pre-warmed, and what every search reads
// (SearchIndex) is precomputed: per-class operators, sizes and children,
// per-operator orders and index paths, and the interned sort orders at
// construction, ancestor cones on the first PinIncrementalBase, so
// concurrent reads stay pure. Between rounds the driver re-pins the base,
// which toggles it in place. Searches cost only; PlanOf builds the plan tree
// of the chosen set once, from the winners of one search.
//
// S has one type from the greedy to the plan search: an ElementSet over the
// memo's canonical class ids [0, memo->num_classes()). The greedy maps its
// candidate bits into it once per evaluation, the cost cache is keyed by
// it, and every plan search holds it. The std::set<EqId> methods are
// adapters for callers holding class ids (tests, reports, MqoResult).

#ifndef MQO_OPTIMIZER_BATCH_OPTIMIZER_H_
#define MQO_OPTIMIZER_BATCH_OPTIMIZER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/element_set.h"
#include "optimizer/plan_search.h"

namespace mqo {

class ObsContext;

/// Full report of a consolidated best plan for one materialized set.
struct ConsolidatedPlan {
  double best_cost = 0.0;      ///< bc(S): use cost + materialization costs.
  double best_use_cost = 0.0;  ///< buc(S).
  double mat_cost = 0.0;       ///< bc(S) − buc(S).
  PlanNodePtr root_plan;       ///< Plan for the batch root under S.
  /// Per materialized node: (class, plan computing it, write cost).
  struct MatNode {
    EqId eq = -1;
    PlanNodePtr compute_plan;
    double write_cost = 0.0;
  };
  std::vector<MatNode> materialized;
};

/// Options for the batch optimizer.
struct BatchOptimizerOptions {
  /// Reuse the plan search across bc() calls that differ by one materialized
  /// node, invalidating only ancestor classes (Roy et al.'s incremental
  /// re-optimization; the paper reuses it in Section 5.1). Off = every bc()
  /// runs a fresh search.
  bool incremental = true;
  /// Debug cross-check: every cone-scoped evaluation is re-run as a fresh
  /// full search and the bc/buc pair asserted equal. Expensive; for tests.
  bool verify_cone = false;
  /// Worker threads the greedy drivers may fan candidate evaluations across;
  /// any value <= 1 runs serially. The facade wires
  /// MqoOptions::exec.num_threads through here so one knob governs optimizer
  /// and executor parallelism. Results are bit-identical for every value.
  int num_threads = 1;
  /// Physical search knobs (e.g. the index nested-loops join extension).
  SearchOptions search;
  /// Statistics source of the estimator (cost/stats.h): catalog guesses
  /// (default, paper-exact plans) or collected table statistics, plus
  /// optional runtime cardinality feedback.
  StatsOptions stats;
  /// Observability sink (obs/obs.h); null = no metrics or tracing. Plan
  /// searches emit "plan_search" spans and optimizer.* counters, and the MQO
  /// layers above (materialization_problem, mqo_algorithms) reach their
  /// tracer through the optimizer they already hold.
  ObsContext* obs = nullptr;
  /// Structural fingerprints of segments already resident in the session's
  /// cross-batch cache (SharedSegmentCache::FingerprintSnapshot, taken once
  /// at batch start so one optimization sees one consistent cache state).
  /// Classes whose fingerprint is in this set cost nothing to materialize —
  /// bc(S) skips their compute + write terms — so the algorithms treat them
  /// as free reads and plans steer toward the cache. Null/empty = no cache.
  std::shared_ptr<const std::unordered_set<uint64_t>> cached_fingerprints;
};

/// Concurrent bc/buc cache keyed by the exact materialized class set. The
/// 64-bit set hash is only a bucket index; every hit verifies the stored set
/// with operator==, so a hash collision costs a probe instead of silently
/// returning a wrong cost. Get/Put take the caller-computed hash so tests
/// can force collisions.
class CostCache {
 public:
  /// Looks up `set` under `hash`; fills `out` {bc, buc} on a verified hit.
  bool Get(uint64_t hash, const ElementSet& set,
           std::pair<double, double>* out) const;

  /// Stores {bc, buc} for `set` under `hash` (first writer wins).
  void Put(uint64_t hash, const ElementSet& set,
           std::pair<double, double> value);

 private:
  struct Entry {
    ElementSet set;
    std::pair<double, double> cost;
  };
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<Entry>> buckets_;
};

/// Expected number of materialized-store reads per materialized class in
/// `plan`: ReadMaterialized leaves across the root plan and every compute
/// plan, plus join side-inputs (single-child join nodes whose inner is a
/// materialized class — BNL/index probes rescan those from the store). The
/// executors put each segment with its expected reads (and add them to a
/// cache hit's), so eviction can weigh segments by the reads still ahead of
/// them.
std::unordered_map<EqId, double> ExpectedSegmentReads(
    const Memo& memo, const ConsolidatedPlan& plan);

/// Cost oracle for the MQO algorithms. A materialized set is an ElementSet
/// of canonical class ids over [0, memo()->num_classes()). Evaluations are
/// cached per set, and instrumentation counters expose how many full
/// optimizations were run. Costs is thread-safe between PinIncrementalBase
/// calls; PinIncrementalBase and PlanOf must be called from one thread at a
/// time.
class BatchOptimizer {
 public:
  /// The memo must already contain the batch (InsertBatch) and be expanded.
  BatchOptimizer(Memo* memo, CostModel cost_model,
                 BatchOptimizerOptions options = {});

  /// The class set of `ids`, which may name any representatives.
  ElementSet ClassSet(const std::set<EqId>& ids) const;

  /// {bc(S), buc(S)} of class set S.
  std::pair<double, double> Costs(const ElementSet& s);

  /// Full consolidated plan for class set S (uncached; use for final
  /// reporting).
  ConsolidatedPlan PlanOf(const ElementSet& s);

  /// Pins class set S as the incremental base: subsequent bc(S ∪ {x}) /
  /// bc(S \ {x}) calls overlay the pinned search and re-plan only the
  /// ancestor cone of x. The MQO greedy drivers call this after each
  /// committed pick; when S is one element away from the current base, the
  /// base is toggled in place (re-planning only that element's cone) rather
  /// than rebuilt.
  void PinIncrementalBase(const ElementSet& s);

  /// The same for sets of class ids (any representatives).
  double BestCost(const std::set<EqId>& mat) {
    return Costs(ClassSet(mat)).first;
  }
  double BestUseCost(const std::set<EqId>& mat) {
    return Costs(ClassSet(mat)).second;
  }
  ConsolidatedPlan Plan(const std::set<EqId>& mat) {
    return PlanOf(ClassSet(mat));
  }
  void SetIncrementalBase(const std::set<EqId>& mat) {
    PinIncrementalBase(ClassSet(mat));
  }

  /// Cost of computing node `eq` with nothing else materialized, plus the
  /// write; the "standalone materialization cost" used by the use-benefit
  /// decomposition.
  double StandaloneMatCost(EqId eq);

  /// Estimated payload bytes of node `eq`'s materialized segment (the
  /// stats layer's result-size estimate) — what the memory-governed store's
  /// budget would be charged for holding it.
  double MatFootprintBytes(EqId eq);

  /// Number of distinct bc() optimizations actually executed (cache misses).
  int64_t num_optimizations() const { return num_optimizations_.load(); }

  /// How many of those were served by delta-reuse of a prior search.
  int64_t num_incremental() const { return num_incremental_.load(); }

  /// Total operator costings across all optimizations (work proxy).
  int64_t num_costings() const { return num_costings_.load(); }

  Memo* memo() { return memo_; }
  StatsEstimator* stats() { return &stats_; }
  ObsContext* obs() { return options_.obs; }

  /// The options this optimizer runs with.
  const BatchOptimizerOptions& options() const { return options_; }

 private:
  /// Runs bc+buc on `search`, charging only the costings delta.
  std::pair<double, double> Evaluate(PlanSearch* search, const ElementSet& s);
  /// {bc, buc} of `s` read off `search` (no counter is charged).
  std::pair<double, double> SearchCosts(PlanSearch* search,
                                        const ElementSet& s) const;
  /// Warms every per-class cache concurrent evaluations read (union-find
  /// paths, statistics, attribute sets) so worker threads never mutate
  /// shared state. Idempotent.
  void PrewarmSharedCaches();

  Memo* memo_;
  CostModel cm_;
  BatchOptimizerOptions options_;
  StatsEstimator stats_;
  CostCache cache_;
  /// Canonical classes whose fingerprint hit `options_.cached_fingerprints`;
  /// built once in the constructor, immutable afterwards.
  ElementSet cached_classes_;
  /// What every search reads of the expanded memo, built in the
  /// constructor, plus ancestor cones, built by the first
  /// PinIncrementalBase; shared read-only by every search.
  std::shared_ptr<SearchIndex> index_;
  std::unique_ptr<PlanSearch> base_;  // pinned committed base (greedy's X)
  std::atomic<int64_t> num_optimizations_{0};
  std::atomic<int64_t> num_incremental_{0};
  std::atomic<int64_t> num_costings_{0};
};

}  // namespace mqo

#endif  // MQO_OPTIMIZER_BATCH_OPTIMIZER_H_
