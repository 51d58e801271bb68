#include "optimizer/plan_search.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace mqo {

SearchIndex::SearchIndex(const Memo& memo, StatsEstimator* stats)
    : class_ops_(memo.num_classes()),
      is_base_(memo.num_classes(), 0),
      join_keys_(memo.num_ops()) {
  const std::vector<EqId> classes = memo.AllClasses();
  for (EqId c : classes) {
    class_ops_[c] = memo.ClassOps(c);
    is_base_[c] = memo.IsBaseRelation(c) ? 1 : 0;
  }
  for (EqId c : classes) {
    for (OpId oid : class_ops_[c]) {
      const MemoOp& op = memo.op(oid);
      if (op.kind != LogicalOp::kJoin) continue;
      const RelStats& ls = stats->ClassStats(op.children[0]);
      const RelStats& rs = stats->ClassStats(op.children[1]);
      JoinKeys& keys = join_keys_[oid];
      keys.resolvable = true;
      for (const auto& cond : op.join_predicate.conditions()) {
        if (ls.Find(cond.left) != nullptr && rs.Find(cond.right) != nullptr) {
          keys.left.push_back(cond.left);
          keys.right.push_back(cond.right);
        } else if (ls.Find(cond.right) != nullptr &&
                   rs.Find(cond.left) != nullptr) {
          keys.left.push_back(cond.right);
          keys.right.push_back(cond.left);
        } else {
          keys = JoinKeys{};
          break;
        }
      }
    }
  }
}

void SearchIndex::BuildCones(const Memo& memo) {
  cones_.resize(memo.num_classes());
  for (EqId c : memo.AllClasses()) cones_[c] = memo.AncestorClasses(c);
}

/// The first cheapest plan offered that satisfies the required order — the
/// candidate choice of one ComputePlan miss, kept without a candidate list.
class PlanSearch::Best {
 public:
  explicit Best(const SortOrder& required) : required_(required) {}

  void Offer(PlanNodePtr plan) {
    if (plan == nullptr || !OrderSatisfies(plan->output_order, required_)) {
      return;
    }
    if (best_ == nullptr || plan->total_cost < best_->total_cost) {
      best_ = std::move(plan);
    }
  }

  PlanNodePtr Take() { return std::move(best_); }

 private:
  const SortOrder& required_;
  PlanNodePtr best_;
};

PlanSearch::PlanSearch(Memo* memo, StatsEstimator* stats,
                       const CostModel& cost_model, std::set<EqId> materialized,
                       SearchOptions options,
                       std::shared_ptr<const SearchIndex> index)
    : memo_(memo),
      stats_(stats),
      cm_(cost_model),
      options_(options),
      index_(std::move(index)) {
  assert(index_ != nullptr);
  for (EqId e : materialized) mat_.insert(memo_->Find(e));
}

PlanSearch::PlanSearch(const PlanSearch* base, EqId toggled, bool materialized)
    : memo_(base->memo_),
      stats_(base->stats_),
      cm_(base->cm_),
      options_(base->options_),
      index_(base->index_),
      base_(base) {
  assert(base->base_ == nullptr && "overlays do not stack");
  if (toggled < 0) return;  // empty-cone overlay: every lookup falls through
  toggled_ = memo_->Find(toggled);
  toggled_materialized_ = materialized;
  cone_ = &index_->Cone(toggled_);
}

bool PlanSearch::IsMaterialized(EqId eq) const {
  if (base_ == nullptr) return mat_.count(eq) > 0;
  if (eq == toggled_) return toggled_materialized_;
  return base_->mat_.count(eq) > 0;
}

bool PlanSearch::InCone(EqId eq) const {
  return cone_ != nullptr && std::binary_search(cone_->begin(), cone_->end(), eq);
}

const PlanNodePtr* PlanSearch::Lookup(const PlanCache& cache, EqId eq,
                                      uint64_t key) {
  auto bucket = cache.find(eq);
  if (bucket == cache.end()) return nullptr;
  auto it = bucket->second.find(key);
  return it != bucket->second.end() ? &it->second : nullptr;
}

const PlanNodePtr* PlanSearch::BaseUse(EqId eq, uint64_t key) const {
  if (base_ == nullptr || InCone(eq)) return nullptr;
  return Lookup(base_->use_cache_, eq, key);
}

const PlanNodePtr* PlanSearch::BaseCompute(EqId eq, uint64_t key) const {
  if (base_ == nullptr || InCone(eq)) return nullptr;
  return Lookup(base_->compute_cache_, eq, key);
}

uint64_t PlanSearch::Key(EqId eq, const SortOrder& order) const {
  uint64_t h = static_cast<uint64_t>(memo_->Find(eq));
  for (const auto& c : order) h = HashCombine(h, c.Hash());
  return h;
}

void PlanSearch::ToggleMaterialized(EqId eq, bool materialized) {
  assert(base_ == nullptr && "toggle the base, not an overlay");
  eq = memo_->Find(eq);
  if (materialized) {
    mat_.insert(eq);
  } else {
    mat_.erase(eq);
  }
  for (EqId ancestor : index_->Cone(eq)) {
    use_cache_.erase(ancestor);
    compute_cache_.erase(ancestor);
    mat_order_cache_.erase(ancestor);
  }
}

double PlanSearch::WriteCost(EqId eq) {
  const RelStats& s = stats_->ClassStats(eq);
  return cm_.SeqWriteCost(s.Blocks(cm_));
}

double PlanSearch::ReadCost(EqId eq) {
  const RelStats& s = stats_->ClassStats(eq);
  return cm_.SeqReadCost(s.Blocks(cm_));
}

const SortOrder& PlanSearch::MaterializedOrder(EqId eq) {
  eq = memo_->Find(eq);
  auto it = mat_order_cache_.find(eq);
  if (it != mat_order_cache_.end()) return it->second;
  if (base_ != nullptr && !InCone(eq)) {
    auto base_it = base_->mat_order_cache_.find(eq);
    if (base_it != base_->mat_order_cache_.end()) {
      ++reuse_hits_;
      return base_it->second;
    }
  }
  // Reserve the slot first: the compute search below may consult other
  // materialized nodes but never this one at its own root.
  auto [ins, _] = mat_order_cache_.emplace(eq, SortOrder{});
  PlanNodePtr compute = ComputePlan(eq, {});
  if (compute != nullptr) ins->second = compute->output_order;
  return ins->second;
}

PlanNodePtr PlanSearch::UsePlan(EqId eq, const SortOrder& required) {
  eq = memo_->Find(eq);
  const uint64_t key = Key(eq, required);
  if (const PlanNodePtr* cached = Lookup(use_cache_, eq, key)) return *cached;
  if (const PlanNodePtr* reused = BaseUse(eq, key)) {
    ++reuse_hits_;
    return *reused;
  }

  PlanNodePtr best = ComputePlan(eq, required);
  if (IsMaterialized(eq)) {
    // Read the materialized result, which is stored in its compute plan's
    // order; sort on top only if the required order is not satisfied.
    const SortOrder& stored = MaterializedOrder(eq);
    PlanNodePtr read = MakePlanNode(PhysOp::kReadMaterialized, eq, stored,
                                    ReadCost(eq), "", {});
    if (!OrderSatisfies(stored, required)) {
      const double sort_cost = cm_.SortCost(stats_->ClassStats(eq).Blocks(cm_));
      read = MakePlanNode(PhysOp::kSort, eq, required, sort_cost, "", {read});
    }
    if (best == nullptr || read->total_cost < best->total_cost) {
      best = std::move(read);
    }
  }
  use_cache_[eq].emplace(key, best);
  return best;
}

PlanNodePtr PlanSearch::ComputePlan(EqId eq, const SortOrder& required) {
  eq = memo_->Find(eq);
  const uint64_t key = Key(eq, required);
  if (const PlanNodePtr* cached = Lookup(compute_cache_, eq, key)) {
    return *cached;
  }
  if (const PlanNodePtr* reused = BaseCompute(eq, key)) {
    ++reuse_hits_;
    return *reused;
  }
  if (std::find(in_progress_.begin(), in_progress_.end(), key) !=
      in_progress_.end()) {
    // Cycle guard; a well-formed LQDAG is acyclic so this never fires.
    return nullptr;
  }
  in_progress_.push_back(key);
  PlanNodePtr best = ComputePlanUncached(eq, required);
  in_progress_.pop_back();
  compute_cache_[eq].emplace(key, best);
  return best;
}

PlanNodePtr PlanSearch::ComputePlanUncached(EqId eq, const SortOrder& required) {
  // Keep the first cheapest candidate that satisfies the required order
  // natively...
  Best best(required);
  for (OpId oid : index_->ClassOps(eq)) {
    const MemoOp& op = memo_->op(oid);
    switch (op.kind) {
      case LogicalOp::kScan:
        AddScanCandidates(op, oid, eq, &best);
        break;
      case LogicalOp::kSelect:
        AddSelectCandidates(op, oid, eq, &best);
        break;
      case LogicalOp::kJoin:
        AddJoinCandidates(op, oid, eq, &best);
        break;
      case LogicalOp::kAggregate:
        AddAggregateCandidates(op, oid, eq, &best);
        break;
      case LogicalOp::kProject:
        AddProjectCandidates(op, oid, eq, required, &best);
        break;
      case LogicalOp::kBatch:
        AddBatchCandidates(op, oid, eq, &best);
        break;
    }
  }
  // ... and offer the external-sort enforcer on the best unordered plan.
  if (!required.empty()) {
    PlanNodePtr unordered = ComputePlan(eq, {});
    if (unordered != nullptr) {
      const double sort_cost = cm_.SortCost(stats_->ClassStats(eq).Blocks(cm_));
      best.Offer(MakePlanNode(PhysOp::kSort, eq, required, sort_cost, "",
                              {std::move(unordered)}));
    }
  }
  return best.Take();
}

void PlanSearch::AddScanCandidates(const MemoOp& op, OpId oid, EqId eq,
                                   Best* out) {
  ++num_costings_;
  auto table_res = memo_->catalog()->GetTable(op.table);
  assert(table_res.ok());
  const Table* table = table_res.ValueOrDie();
  const double blocks = stats_->ClassStats(eq).Blocks(cm_);
  SortOrder order;
  if (const IndexDef* idx = table->clustered_index()) {
    for (const auto& col : idx->key_columns) order.emplace_back(op.alias, col);
  }
  out->Offer(MakePlanNode(PhysOp::kTableScan, eq, std::move(order),
                          cm_.SeqReadCost(blocks),
                          annotate_ ? op.table : std::string(), {}, oid));
}

void PlanSearch::AddSelectCandidates(const MemoOp& op, OpId oid, EqId eq,
                                     Best* out) {
  const EqId child = memo_->Find(op.children[0]);
  const RelStats& child_stats = stats_->ClassStats(child);
  const double in_blocks = child_stats.Blocks(cm_);

  // Pipelined filter over the child (any producing order is preserved; we
  // materialize candidates for the unordered requirement and for each child
  // order reachable natively via UsePlan({}), which keeps the search simple
  // and sound: ordered requirements are additionally served by the enforcer).
  {
    ++num_costings_;
    PlanNodePtr child_plan = UsePlan(child, {});
    if (child_plan != nullptr) {
      SortOrder order = child_plan->output_order;
      out->Offer(MakePlanNode(
          PhysOp::kFilter, eq, std::move(order), cm_.CpuPassCost(in_blocks),
          annotate_ ? op.predicate.ToString() : std::string(),
          {std::move(child_plan)}, oid));
    }
  }

  // Indexed selection on a base relation's clustered index when some
  // conjunct constrains the leading key column.
  if (index_->IsBaseRelation(child)) {
    for (OpId cid : index_->ClassOps(child)) {
      const MemoOp& scan = memo_->op(cid);
      if (scan.kind != LogicalOp::kScan) continue;
      auto table_res = memo_->catalog()->GetTable(scan.table);
      assert(table_res.ok());
      const IndexDef* idx = table_res.ValueOrDie()->clustered_index();
      if (idx == nullptr) continue;
      const ColumnRef leading(scan.alias, idx->key_columns[0]);
      double lead_sel = 1.0;
      bool sargable = false;
      for (const auto& cmp : op.predicate.conjuncts()) {
        if (cmp.column == leading) {
          lead_sel *= stats_->Selectivity(cmp, child_stats);
          sargable = true;
        }
      }
      if (!sargable) continue;
      ++num_costings_;
      SortOrder order;
      for (const auto& col : idx->key_columns) order.emplace_back(scan.alias, col);
      const double matching_blocks = std::max(1.0, lead_sel * in_blocks);
      out->Offer(MakePlanNode(
          PhysOp::kIndexScan, eq, std::move(order),
          cm_.IndexedSelectionCost(matching_blocks),
          annotate_ ? scan.table + ": " + op.predicate.ToString()
                    : std::string(),
          {}, oid));
      break;
    }
  }
}

void PlanSearch::AddJoinCandidates(const MemoOp& op, OpId oid, EqId eq,
                                   Best* out) {
  const SearchIndex::JoinKeys& keys = index_->Keys(oid);
  if (!keys.resolvable) return;
  const SortOrder& left_keys = keys.left;
  const SortOrder& right_keys = keys.right;
  const EqId left = memo_->Find(op.children[0]);
  const EqId right = memo_->Find(op.children[1]);
  const RelStats& ls = stats_->ClassStats(left);
  const RelStats& rs = stats_->ClassStats(right);
  const RelStats& os = stats_->ClassStats(eq);
  const double lb = ls.Blocks(cm_);
  const double rb = rs.Blocks(cm_);
  const double ob = os.Blocks(cm_);

  const std::string detail =
      annotate_ ? op.join_predicate.ToString() : std::string();

  // Block nested-loops join: outer = left (commutativity supplies the swap as
  // a separate memo operator). The inner must be rescannable: base relations
  // and materialized nodes are; otherwise it is computed once and spooled to
  // a temporary file.
  {
    ++num_costings_;
    PlanNodePtr outer = UsePlan(left, {});
    if (outer != nullptr) {
      const double passes = cm_.BnlPasses(lb);
      double inner_cost;
      std::vector<PlanNodePtr> children;
      children.reserve(2);
      children.push_back(outer);
      if (IsMaterialized(right) || index_->IsBaseRelation(right)) {
        inner_cost = passes * cm_.SeqReadCost(rb);
      } else {
        PlanNodePtr inner = UsePlan(right, {});
        if (inner == nullptr) return;
        children.push_back(inner);
        inner_cost = cm_.SeqWriteCost(rb) + passes * cm_.SeqReadCost(rb);
      }
      out->Offer(MakePlanNode(PhysOp::kBlockNLJoin, eq, {},
                              inner_cost + cm_.CpuPassCost(ob), detail,
                              std::move(children), oid));
    }
  }

  // Index nested-loops join (optional extension): probe the inner's
  // clustered index once per outer row. Wins when the outer is small.
  if (options_.enable_index_nl_join && !right_keys.empty() &&
      index_->IsBaseRelation(right)) {
    for (OpId cid : index_->ClassOps(right)) {
      const MemoOp& scan = memo_->op(cid);
      if (scan.kind != LogicalOp::kScan) continue;
      auto table_res = memo_->catalog()->GetTable(scan.table);
      assert(table_res.ok());
      const IndexDef* idx = table_res.ValueOrDie()->clustered_index();
      if (idx == nullptr) continue;
      const ColumnRef leading(scan.alias, idx->key_columns[0]);
      if (!(right_keys.front() == leading)) continue;
      ++num_costings_;
      PlanNodePtr outer = UsePlan(left, {});
      if (outer == nullptr) break;
      // Per probe: two random index-node reads plus the matching leaf data.
      const ColumnStat* key_stat = rs.Find(leading);
      const double matches =
          rs.rows / std::max(1.0, key_stat != nullptr ? key_stat->distinct : 1.0);
      const double blocks_per_probe = std::max(
          1.0, matches * rs.row_width_bytes / cm_.params().block_size_bytes);
      const double probe_cost =
          2.0 * (cm_.params().seek_ms + cm_.params().read_ms_per_block) +
          blocks_per_probe *
              (cm_.params().read_ms_per_block + cm_.params().cpu_ms_per_block);
      SortOrder order = outer->output_order;
      out->Offer(MakePlanNode(PhysOp::kIndexNLJoin, eq, std::move(order),
                              ls.rows * probe_cost + cm_.CpuPassCost(ob),
                              detail, {std::move(outer)}, oid));
      break;
    }
  }

  // Merge join: both inputs in join-key order (enforcers inserted by the
  // children's own searches when needed). Output keeps the left key order.
  if (!left_keys.empty()) {
    ++num_costings_;
    PlanNodePtr lp = UsePlan(left, left_keys);
    PlanNodePtr rp = UsePlan(right, right_keys);
    if (lp != nullptr && rp != nullptr) {
      out->Offer(MakePlanNode(PhysOp::kMergeJoin, eq, left_keys,
                              cm_.CpuPassCost(lb + rb + ob), detail,
                              {std::move(lp), std::move(rp)}, oid));
    }
  }
}

void PlanSearch::AddAggregateCandidates(const MemoOp& op, OpId oid, EqId eq,
                                        Best* out) {
  ++num_costings_;
  const EqId child = memo_->Find(op.children[0]);
  const double in_blocks = stats_->ClassStats(child).Blocks(cm_);
  std::string detail;
  if (annotate_) {
    for (const auto& g : op.group_by) {
      if (!detail.empty()) detail += ", ";
      detail += g.ToString();
    }
  }
  if (op.group_by.empty()) {
    // Scalar aggregate: single CPU pass, no order requirement.
    PlanNodePtr child_plan = UsePlan(child, {});
    if (child_plan != nullptr) {
      out->Offer(MakePlanNode(PhysOp::kSortAggregate, eq, {},
                              cm_.CpuPassCost(in_blocks), std::move(detail),
                              {std::move(child_plan)}, oid));
    }
    return;
  }
  // Sort-based aggregation: input in group-by order, output stays in it.
  const SortOrder& group_order = op.group_by;
  PlanNodePtr child_plan = UsePlan(child, group_order);
  if (child_plan != nullptr) {
    out->Offer(MakePlanNode(PhysOp::kSortAggregate, eq, group_order,
                            cm_.CpuPassCost(in_blocks), std::move(detail),
                            {std::move(child_plan)}, oid));
  }
}

void PlanSearch::AddProjectCandidates(const MemoOp& op, OpId oid, EqId eq,
                                      const SortOrder& required, Best* out) {
  ++num_costings_;
  const EqId child = memo_->Find(op.children[0]);
  const double out_blocks = stats_->ClassStats(eq).Blocks(cm_);
  // Projection preserves its child's order over surviving columns; pass the
  // requirement straight down (required columns are produced by this class,
  // hence also by the child).
  PlanNodePtr child_plan = UsePlan(child, required);
  if (child_plan == nullptr) return;
  const SortOrder& child_order = child_plan->output_order;
  // Truncate the order at the first projected-away column.
  size_t keep = 0;
  for (; keep < child_order.size(); ++keep) {
    if (std::find(op.project_columns.begin(), op.project_columns.end(),
                  child_order[keep]) == op.project_columns.end()) {
      break;
    }
  }
  SortOrder order(child_order.begin(), child_order.begin() + keep);
  out->Offer(MakePlanNode(PhysOp::kProject, eq, std::move(order),
                          cm_.CpuPassCost(out_blocks), "",
                          {std::move(child_plan)}, oid));
}

void PlanSearch::AddBatchCandidates(const MemoOp& op, OpId oid, EqId eq,
                                    Best* out) {
  ++num_costings_;
  // In an overlay the batch root is in every cone, but most of its children
  // are not: the base's own plan for this operator already holds their best
  // plans, in child order, so take those instead of looking each one up.
  const PlanNode* base_plan = nullptr;
  if (base_ != nullptr) {
    const PlanNodePtr* cached = Lookup(base_->compute_cache_, eq, Key(eq, {}));
    if (cached != nullptr && *cached != nullptr &&
        (*cached)->logical_op == oid &&
        (*cached)->children.size() == op.children.size()) {
      base_plan = cached->get();
    }
  }
  std::vector<PlanNodePtr> children;
  children.reserve(op.children.size());
  for (size_t i = 0; i < op.children.size(); ++i) {
    const EqId c = memo_->Find(op.children[i]);
    PlanNodePtr plan;
    if (base_plan != nullptr && !InCone(c)) {
      ++reuse_hits_;
      plan = base_plan->children[i];
    } else {
      plan = UsePlan(c, {});
    }
    if (plan == nullptr) return;
    children.push_back(std::move(plan));
  }
  out->Offer(MakePlanNode(PhysOp::kBatchRoot, eq, {}, 0.0, "",
                          std::move(children), oid));
}

}  // namespace mqo
