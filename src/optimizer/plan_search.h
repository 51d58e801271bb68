// Volcano-style physical plan search over the expanded LQDAG, aware of a set
// of materialized equivalence nodes.
//
// For a fixed materialized set S, a PlanSearch instance memoizes
//   UsePlan(eq, order)     — best plan that may read eq (or any descendant)
//                            from its materialization, and
//   ComputePlan(eq, order) — best plan that computes eq at its root (used to
//                            cost producing a node of S itself).
// Sort-order requirements are satisfied either natively (clustered scans,
// merge joins, sort-based aggregation) or by an external-sort enforcer.

#ifndef MQO_OPTIMIZER_PLAN_SEARCH_H_
#define MQO_OPTIMIZER_PLAN_SEARCH_H_

#include <cassert>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "cost/stats.h"
#include "physical/plan.h"

namespace mqo {

/// Physical search knobs beyond the cost constants.
struct SearchOptions {
  /// Enables the index nested-loops join alternative (probe a base
  /// relation's clustered index per outer row). Off by default: the paper's
  /// operator set (Section 6) does not include it; bench_inlj ablates it.
  bool enable_index_nl_join = false;
};

/// What plan searches look up on every costing and that is fixed once the
/// memo is expanded: each canonical class's live operators, whether it is a
/// base relation, and its ancestor cone; and each join operator's condition
/// columns resolved to its left/right input. Filled once and immutable
/// afterwards, so concurrent searches read it without synchronization. The
/// batch optimizer builds one at construction, adds the cones when it first
/// pins an incremental base, and shares it with every search it runs; any
/// later change to the memo invalidates it.
class SearchIndex {
 public:
  /// `stats` resolves which input each join column belongs to. Cones are
  /// left empty until BuildCones.
  SearchIndex(const Memo& memo, StatsEstimator* stats);

  /// Computes every canonical class's ancestor cone, which only
  /// ToggleMaterialized and overlays read. Call once, while no search that
  /// shares this index is running.
  void BuildCones(const Memo& memo);
  bool has_cones() const { return !cones_.empty(); }

  /// Live operator ids of canonical class `eq` (Memo::ClassOps).
  const std::vector<OpId>& ClassOps(EqId eq) const { return class_ops_[eq]; }

  /// True iff canonical class `eq` contains a base-relation scan.
  bool IsBaseRelation(EqId eq) const { return is_base_[eq] != 0; }

  /// Memo::AncestorClasses(eq) of canonical class `eq`, ascending: the
  /// classes whose best plans a toggle of `eq`'s materialization can change.
  /// Requires BuildCones.
  const std::vector<EqId>& Cone(EqId eq) const {
    assert(has_cones());
    return cones_[eq];
  }

  /// A join's conditions as key orders over its (left, right) children, or
  /// `resolvable = false` when some condition's columns do not split across
  /// the two inputs (the join then has no plan).
  struct JoinKeys {
    bool resolvable = false;
    SortOrder left;
    SortOrder right;
  };
  const JoinKeys& Keys(OpId join) const { return join_keys_[join]; }

 private:
  std::vector<std::vector<OpId>> class_ops_;  // by class id; canonical only
  std::vector<char> is_base_;                 // by class id
  std::vector<std::vector<EqId>> cones_;      // by class id; BuildCones
  std::vector<JoinKeys> join_keys_;           // by op id; live joins only
};

/// One plan search, valid for a fixed materialized set.
class PlanSearch {
 public:
  /// `materialized` holds canonical EqIds. The memo must be fully expanded.
  /// `index` is the SearchIndex of this memo (non-null); ToggleMaterialized
  /// and overlays of this search need its cones built.
  PlanSearch(Memo* memo, StatsEstimator* stats, const CostModel& cost_model,
             std::set<EqId> materialized, SearchOptions options,
             std::shared_ptr<const SearchIndex> index);

  /// Cone-scoped overlay: a search for base's set with the materialization
  /// status of `toggled` flipped to `materialized`, that reuses `base`'s
  /// cached plans for every class outside the precomputed ancestor cone of
  /// `toggled` and recomputes only inside that cone. A class's best plan
  /// depends only on its downward closure, and a class outside the cone
  /// cannot reach `toggled`, so every reused plan is exactly what a fresh
  /// full search would produce — per-candidate cost drops from O(memo) to
  /// O(cone) without copying the base's caches or its materialized set.
  /// `toggled < 0` means no flip (an empty-cone overlay evaluating the
  /// base's own set). The overlay never mutates `base`, so many overlays
  /// over one pinned base may run on separate threads concurrently; `base`
  /// must outlive them and stay unmodified while they run.
  PlanSearch(const PlanSearch* base, EqId toggled, bool materialized);

  /// Best plan producing `eq` in `required` order, allowed to read any
  /// materialized node (including eq itself). Never returns null for a
  /// well-formed DAG.
  PlanNodePtr UsePlan(EqId eq, const SortOrder& required);

  /// Best plan that computes `eq` with a real operator at the root (its
  /// descendants may still read materialized nodes). Used to cost the
  /// one-time computation of a node chosen for materialization.
  PlanNodePtr ComputePlan(EqId eq, const SortOrder& required);

  /// Cost of writing out class `eq` for sharing (sequential write).
  double WriteCost(EqId eq);

  /// Cost of one sequential read of the materialized class `eq`.
  double ReadCost(EqId eq);

  /// Sort order a materialized node is stored in: the output order of its
  /// chosen compute plan (materialization writes the stream sequentially, so
  /// the order survives on disk — Roy et al. track physical properties of
  /// intermediate results the same way).
  const SortOrder& MaterializedOrder(EqId eq);

  /// Makes this search fill every plan node's display annotation (filter
  /// predicate, join condition, group-by list, table) for PlanToString.
  /// Cost-only searches skip building those strings; call this before the
  /// first UsePlan/ComputePlan of a search whose plans are rendered.
  void AnnotatePlans() { annotate_ = true; }

  /// Number of operator-implementation costings performed (instrumentation
  /// for the lazy-evaluation ablation).
  int64_t num_costings() const { return num_costings_; }

  /// Overlay instrumentation: cached plans served from the base search
  /// (0 for a non-overlay search) and the size of the recomputed cone.
  int64_t reuse_hits() const { return reuse_hits_; }
  int64_t cone_size() const {
    return cone_ != nullptr ? static_cast<int64_t>(cone_->size()) : 0;
  }

  /// Incremental re-optimization (Roy et al.'s second optimization, reused
  /// by the paper's Section 5.1): flips the materialization status of `eq`
  /// in place and drops cached plans only for `eq`'s precomputed ancestor
  /// cone — every other cached plan is unaffected by the change and is kept.
  /// The batch optimizer toggles its pinned base this way after each
  /// committed pick; no overlay of this search may be alive meanwhile.
  void ToggleMaterialized(EqId eq, bool materialized);

  /// The materialized set of a non-overlay search.
  const std::set<EqId>& materialized() const { return mat_; }

 private:
  class Best;

  uint64_t Key(EqId eq, const SortOrder& order) const;
  bool IsMaterialized(EqId eq) const;
  bool InCone(EqId eq) const;
  PlanNodePtr ComputePlanUncached(EqId eq, const SortOrder& required);
  void AddScanCandidates(const MemoOp& op, OpId oid, EqId eq, Best* out);
  void AddSelectCandidates(const MemoOp& op, OpId oid, EqId eq, Best* out);
  void AddJoinCandidates(const MemoOp& op, OpId oid, EqId eq, Best* out);
  void AddAggregateCandidates(const MemoOp& op, OpId oid, EqId eq, Best* out);
  void AddProjectCandidates(const MemoOp& op, OpId oid, EqId eq,
                            const SortOrder& required, Best* out);
  void AddBatchCandidates(const MemoOp& op, OpId oid, EqId eq, Best* out);

  // Caches are nested per class so incremental invalidation can drop exactly
  // the ancestor classes of a toggled node.
  using OrderedPlans = std::unordered_map<uint64_t, PlanNodePtr>;
  using PlanCache = std::unordered_map<EqId, OrderedPlans>;

  /// The entry of `cache` for class `eq` under `key`, or null.
  static const PlanNodePtr* Lookup(const PlanCache& cache, EqId eq,
                                   uint64_t key);
  /// Base-cache lookups for the overlay fall-through; null when this search
  /// is not an overlay, `eq` is in the cone, or the base has no entry.
  const PlanNodePtr* BaseUse(EqId eq, uint64_t key) const;
  const PlanNodePtr* BaseCompute(EqId eq, uint64_t key) const;

  Memo* memo_;
  StatsEstimator* stats_;
  CostModel cm_;
  SearchOptions options_;
  std::shared_ptr<const SearchIndex> index_;
  /// Materialized set of a non-overlay search. An overlay keeps this empty
  /// and answers from the base's set plus its own toggle.
  std::set<EqId> mat_;
  /// Overlay state: the pinned read-only base search, the toggled class and
  /// its new status, and its ancestor cone (owned by `index_`). Classes
  /// outside the cone fall through to `base_`'s caches. Null/-1 for an
  /// ordinary full search and for an empty-cone overlay.
  const PlanSearch* base_ = nullptr;
  EqId toggled_ = -1;
  bool toggled_materialized_ = false;
  const std::vector<EqId>* cone_ = nullptr;
  int64_t reuse_hits_ = 0;
  bool annotate_ = false;
  PlanCache use_cache_;
  PlanCache compute_cache_;
  std::unordered_map<EqId, SortOrder> mat_order_cache_;
  /// Keys of the ComputePlan calls on the current recursion path (cycle
  /// guard); a stack whose capacity is reused across calls.
  std::vector<uint64_t> in_progress_;
  int64_t num_costings_ = 0;
};

}  // namespace mqo

#endif  // MQO_OPTIMIZER_PLAN_SEARCH_H_
