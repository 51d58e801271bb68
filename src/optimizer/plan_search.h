// Volcano-style physical plan search over the expanded LQDAG, aware of a set
// of materialized equivalence nodes.
//
// The search is cost-only. For a fixed materialized set S it memoizes, per
// (class, required sort order), the winner of
//   use   — the cheapest way to produce the class in that order when it (or
//           any descendant) may be read from its materialization, and
//   compute — the cheapest plan with a real operator at the class's root
//           (what producing a node of S itself costs).
// A winner is a flat record: total cost, the root operator's own cost and
// output order, the physical operator and the memo operator it implements.
// Candidates are costed, compared and dropped without building plan nodes,
// and sort orders are dense ids interned by the SearchIndex, so memo lookups
// hash nothing. Plan nodes are built only on request (UsePlan/ComputePlan),
// by walking the winners from the requested slot down; a node's total is
// the same sum, in the same order, that the search compared.
//
// Sort-order requirements are satisfied either natively (clustered scans,
// merge joins, sort-based aggregation) or by an external-sort enforcer.

#ifndef MQO_OPTIMIZER_PLAN_SEARCH_H_
#define MQO_OPTIMIZER_PLAN_SEARCH_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/element_set.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "physical/plan.h"

namespace mqo {

/// Physical search knobs beyond the cost constants.
struct SearchOptions {
  /// Enables the index nested-loops join alternative (probe a base
  /// relation's clustered index per outer row). Off by default: the paper's
  /// operator set (Section 6) does not include it; bench_paper's INLJ
  /// experiment ablates it.
  bool enable_index_nl_join = false;
};

/// Dense id of a sort order interned by a SearchIndex.
using OrderId = int32_t;
/// The empty order: no required order, or an unordered stream.
constexpr OrderId kAnyOrder = 0;

/// What plan searches look up on every costing and that is fixed once the
/// memo is expanded and its statistics are known: each canonical class's
/// live operators, size and whether it is a base relation, and its ancestor
/// cone; each live operator's canonical children and the orders, index
/// accesses and projected columns it implies; and every sort order a search
/// can require or produce, interned. Filled once and immutable afterwards,
/// so concurrent searches read it without synchronization. The batch
/// optimizer builds one at construction, adds the cones when it first pins
/// an incremental base, and shares it with every search it runs; any later
/// change to the memo invalidates it.
class SearchIndex {
 public:
  /// `stats` supplies class sizes and resolves which input each join column
  /// belongs to. Cones are left empty until BuildCones.
  SearchIndex(const Memo& memo, StatsEstimator* stats);

  /// Computes every canonical class's ancestor cone, which only
  /// ToggleMaterialized and overlays read. Call once, while no search that
  /// shares this index is running.
  void BuildCones(const Memo& memo);
  bool has_cones() const { return !cone_begin_.empty(); }

  /// A read-only run of class ids inside the index.
  struct ClassSpan {
    const EqId* first;
    const EqId* last;
    const EqId* begin() const { return first; }
    const EqId* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    EqId operator[](size_t i) const { return first[i]; }
  };

  /// Live operator ids of canonical class `eq` (Memo::ClassOps).
  const std::vector<OpId>& ClassOps(EqId eq) const { return class_ops_[eq]; }

  /// Canonical child classes of live operator `op`, in operator order.
  ClassSpan Children(OpId op) const {
    return {children_.data() + child_begin_[op],
            children_.data() + child_begin_[op + 1]};
  }

  /// True iff canonical class `eq` contains a base-relation scan.
  bool IsBaseRelation(EqId eq) const { return is_base_[eq] != 0; }

  /// Estimated result bytes of canonical class `eq` (RelStats::SizeBytes).
  double SizeBytes(EqId eq) const { return size_bytes_[eq]; }

  /// Memo::AncestorClasses(eq) of canonical class `eq`, ascending: the
  /// classes whose best plans a toggle of `eq`'s materialization can change.
  /// Requires BuildCones.
  ClassSpan Cone(EqId eq) const {
    assert(has_cones());
    return {cones_.data() + cone_begin_[eq], cones_.data() + cone_begin_[eq + 1]};
  }

  /// Interned sort orders: the empty order (kAnyOrder), every scan's
  /// clustered-index order, both key sides of every join, every group-by
  /// list, and all their prefixes. Every order a search requires or
  /// produces is one of these, and equal orders share one id.
  int num_orders() const { return static_cast<int>(orders_.size()); }
  const SortOrder& Order(OrderId id) const { return orders_[id]; }

  /// OrderSatisfies over ids: `required` is a prefix of `actual`.
  bool Satisfies(OrderId actual, OrderId required) const {
    const int len = order_len_[required];
    return len <= order_len_[actual] &&
           prefixes_[prefix_begin_[actual] + len] == required;
  }

  /// The id of the first `len` columns of `order` (len <= its length).
  OrderId Prefix(OrderId order, int len) const {
    assert(len <= order_len_[order]);
    return prefixes_[prefix_begin_[order] + len];
  }

  /// The order projection `project` leaves of an input in `order`: its
  /// leading columns up to the first one the projection drops.
  OrderId ProjectedOrder(OpId project, OrderId order) const;

  /// What a search reads of one live operator, resolved at build time.
  struct OpInfo {
    /// kScan: the clustered-index order (kAnyOrder without an index).
    /// kSelect: the order of its indexed selection. kJoin: the left key
    /// order. kAggregate: the group-by order.
    OrderId order = kAnyOrder;
    /// kJoin: the right key order.
    OrderId right_order = kAnyOrder;
    /// kJoin: false when some condition's columns do not split across the
    /// two inputs (the join then has no plan).
    bool resolvable = false;
    /// kSelect: the scan of its base-relation child whose clustered index
    /// an indexed selection reads. kJoin: the scan of its base-relation
    /// right input whose clustered index an index nested-loops join probes.
    /// -1 when the operator has no such access path.
    OpId index_scan = -1;
    /// kSelect: selectivity of the conjuncts on the index's leading key.
    /// kJoin: expected inner rows per index probe.
    double index_factor = 1.0;
  };
  const OpInfo& Info(OpId op) const { return op_info_[op]; }

 private:
  std::vector<std::vector<OpId>> class_ops_;  // by class id; canonical only
  std::vector<char> is_base_;                 // by class id
  std::vector<double> size_bytes_;            // by class id
  // Class `c`'s cone is cones_[cone_begin_[c] .. cone_begin_[c + 1])
  // (BuildCones). Op `o`'s canonical children are children_[child_begin_[o]
  // .. child_begin_[o + 1]); a projection's kept column ids, ascending, are
  // kept_[kept_begin_[o] .. kept_begin_[o + 1]).
  std::vector<int32_t> cone_begin_;
  std::vector<EqId> cones_;
  std::vector<int32_t> child_begin_;
  std::vector<EqId> children_;
  std::vector<int32_t> kept_begin_;
  std::vector<int32_t> kept_;
  std::vector<OpInfo> op_info_;  // by op id; live ops only
  // Interned orders. Order `a` has order_len_[a] columns; its prefixes of
  // length 0..len are prefixes_[prefix_begin_[a] + len] and its column ids
  // columns_[prefix_begin_[a] + i] (i < len).
  std::vector<SortOrder> orders_;
  std::vector<int32_t> order_len_;
  std::vector<int32_t> prefix_begin_;
  std::vector<OrderId> prefixes_;
  std::vector<int32_t> columns_;
};

/// One plan search, valid for a fixed materialized set.
class PlanSearch {
 public:
  /// `materialized` is a set of canonical class ids over the universe
  /// [0, memo->num_classes()). The memo must be fully expanded. `index` is
  /// the SearchIndex of this memo (non-null); ToggleMaterialized and
  /// overlays of this search need its cones built.
  PlanSearch(Memo* memo, StatsEstimator* stats, const CostModel& cost_model,
             ElementSet materialized, SearchOptions options,
             std::shared_ptr<const SearchIndex> index);

  /// Cone-scoped overlay: a search for base's set with the materialization
  /// status of `toggled` flipped to `materialized`, that reuses `base`'s
  /// winners for every class outside the precomputed ancestor cone of
  /// `toggled` and recomputes only inside that cone. A class's winners
  /// depend only on its downward closure, and a class outside the cone
  /// cannot reach `toggled`, so every reused winner is exactly what a fresh
  /// full search would produce — per-candidate cost drops from O(memo) to
  /// O(cone) without copying the base's tables or its materialized set.
  /// The overlay's own winners are indexed by cone position. `toggled < 0`
  /// means no flip (an empty-cone overlay evaluating the base's own set).
  /// The overlay never mutates `base`, so many overlays over one pinned
  /// base may run on separate threads concurrently; `base` must outlive
  /// them and stay unmodified while they run.
  PlanSearch(const PlanSearch* base, EqId toggled, bool materialized);

  /// Cost of the best plan producing `eq`, allowed to read any
  /// materialized node (including eq itself). Infinite only for a class
  /// with no plan, which a well-formed DAG does not have.
  double UseCost(EqId eq) {
    return Use(Locate(memo_->Find(eq)), kAnyOrder).total;
  }

  /// Cost of the best plan that computes `eq` with a real operator at the
  /// root (its descendants may still read materialized nodes): the one-time
  /// computation of a node chosen for materialization.
  double ComputeCost(EqId eq) {
    return Compute(Locate(memo_->Find(eq)), kAnyOrder).total;
  }

  /// The plans behind UseCost/ComputeCost, built from the winners with
  /// every node's display annotation filled for PlanToString. Nodes are
  /// shared between the plans one search builds. Null only where the cost
  /// is infinite.
  PlanNodePtr UsePlan(EqId eq) { return BuildUse(memo_->Find(eq), kAnyOrder); }
  PlanNodePtr ComputePlan(EqId eq) {
    return BuildCompute(memo_->Find(eq), kAnyOrder);
  }

  /// Cost of writing out class `eq` for sharing (sequential write).
  double WriteCost(EqId eq) const;

  /// Cost of one sequential read of the materialized class `eq`.
  double ReadCost(EqId eq) const;

  /// Number of operator-implementation costings performed (instrumentation
  /// for the lazy-evaluation ablation).
  int64_t num_costings() const { return num_costings_; }

  /// Overlay instrumentation: winners served from the base search (0 for a
  /// non-overlay search) and the size of the recomputed cone.
  int64_t reuse_hits() const { return reuse_hits_; }
  int64_t cone_size() const { return static_cast<int64_t>(cone_.size()); }

  /// Incremental re-optimization (Roy et al.'s second optimization, reused
  /// by the paper's Section 5.1): flips the materialization status of `eq`
  /// in place and drops winners only for `eq`'s precomputed ancestor cone —
  /// every other winner is unaffected by the change and is kept. The batch
  /// optimizer toggles its pinned base this way after each committed pick;
  /// no overlay of this search may be alive meanwhile.
  void ToggleMaterialized(EqId eq, bool materialized);

  /// The materialized set of a non-overlay search.
  const ElementSet& materialized() const { return mat_; }

 private:
  /// The cheapest compute plan of one (class, order): its cost and what
  /// rebuilding its root node needs. `out_order < 0` means no plan.
  struct Winner {
    double total = std::numeric_limits<double>::infinity();
    double op_cost = 0.0;
    OrderId out_order = -1;
    PhysOp op = PhysOp::kTableScan;
    OpId logical_op = -1;

    bool found() const { return out_order >= 0; }
  };

  /// How a use winner produces its class.
  enum class UseSource : uint8_t {
    kCompute,     ///< the compute winner of the same order
    kRead,        ///< a read of the materialized result
    kSortedRead,  ///< a read of the materialized result, sorted on top
  };

  /// The use winner of one (class, order).
  struct UseWinner {
    double total = std::numeric_limits<double>::infinity();
    OrderId out_order = -1;
    UseSource source = UseSource::kCompute;

    bool found() const { return out_order >= 0; }
  };

  /// Both winners of one (class, required order), chained per class.
  struct Slot {
    OrderId required = kAnyOrder;
    int32_t next = -1;  ///< next slot of the class (or of the free list)
    uint8_t state = 0;  ///< kComputeDone | kUseDone | kComputing
    Winner compute;
    UseWinner use;
  };
  static constexpr uint8_t kComputeDone = 1;
  static constexpr uint8_t kUseDone = 2;
  static constexpr uint8_t kComputing = 4;

  class Best;

  /// A canonical class and where its slots live in this search: `pos`
  /// indexes `heads_` (the class id in a full search, the cone position in
  /// an overlay), or is -1 for an overlay class outside the cone.
  struct ClassRef {
    EqId eq;
    int32_t pos;
  };
  ClassRef Locate(EqId eq) const;

  Winner Compute(ClassRef c, OrderId required);
  UseWinner Use(ClassRef c, OrderId required);
  Winner ComputeUncached(ClassRef c, OrderId required);
  void AddScanCandidates(OpId oid, EqId eq, Best* out);
  void AddSelectCandidates(OpId oid, Best* out);
  void AddJoinCandidates(OpId oid, EqId eq, Best* out);
  void AddAggregateCandidates(OpId oid, Best* out);
  void AddProjectCandidates(OpId oid, EqId eq, OrderId required, Best* out);
  void AddBatchCandidates(OpId oid, Best* out);

  bool IsMaterialized(EqId eq) const;
  double Blocks(EqId eq) const { return cm_.Blocks(index_->SizeBytes(eq)); }
  /// Order a materialized node is stored in: the output order of its
  /// unordered compute winner (materialization writes the stream
  /// sequentially, so the order survives on disk — Roy et al. track
  /// physical properties of intermediate results the same way).
  OrderId MaterializedOrder(ClassRef c);

  /// Index of this search's slot for (c, required), or -1.
  int32_t FindSlot(ClassRef c, OrderId required) const;
  /// The slot for (c, required), made if missing.
  int32_t FindOrAddSlot(ClassRef c, OrderId required);
  /// The base's slot for (c, required) when this is an overlay and `c` is
  /// outside its cone; else null.
  const Slot* BaseSlot(ClassRef c, OrderId required) const;

  /// The plan tree of the use/compute winner of canonical (eq, required),
  /// searched first if missing; nodes are memoized in `built_`.
  PlanNodePtr BuildUse(EqId eq, OrderId required);
  PlanNodePtr BuildCompute(EqId eq, OrderId required);

  Memo* memo_;
  StatsEstimator* stats_;
  CostModel cm_;
  SearchOptions options_;
  std::shared_ptr<const SearchIndex> index_;
  /// Materialized class set of a non-overlay search. An overlay keeps it
  /// empty and answers from the base's set plus its own toggle.
  ElementSet mat_;
  /// Overlay state: the pinned read-only base search, the toggled class and
  /// its new status, and its ancestor cone (owned by `index_`). Classes
  /// outside the cone fall through to `base_`'s winners. Null/-1 for an
  /// ordinary full search and for an empty-cone overlay.
  const PlanSearch* base_ = nullptr;
  EqId toggled_ = -1;
  bool toggled_materialized_ = false;
  SearchIndex::ClassSpan cone_{nullptr, nullptr};
  int64_t reuse_hits_ = 0;
  /// Winner tables: per-class chains of slots in one flat pool. `heads_` is
  /// indexed by class id (full search) or cone position (overlay); an
  /// overlay keeps the rare slots of classes outside its cone, which the
  /// base never searched, under `outside_heads_`. Slots dropped by a toggle
  /// go to the free list `free_`.
  std::vector<int32_t> heads_;
  std::vector<std::pair<EqId, int32_t>> outside_heads_;
  std::vector<Slot> slots_;
  int32_t free_ = -1;
  /// Plan nodes built so far, by (class, order, use/compute); dropped by a
  /// toggle.
  std::unordered_map<uint64_t, PlanNodePtr> built_;
  int64_t num_costings_ = 0;
};

}  // namespace mqo

#endif  // MQO_OPTIMIZER_PLAN_SEARCH_H_
