#include "optimizer/plan_search.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace mqo {

SearchIndex::SearchIndex(const Memo& memo, StatsEstimator* stats)
    : class_ops_(memo.num_classes()),
      is_base_(memo.num_classes(), 0),
      size_bytes_(memo.num_classes(), 0.0),
      child_begin_(memo.num_ops() + 1, 0),
      op_info_(memo.num_ops()) {
  // Interning table, used only while building. An order is interned with
  // all its prefixes, shortest first, so the empty order gets kAnyOrder.
  std::map<SortOrder, OrderId> ids;
  auto intern = [&](const SortOrder& order) {
    if (auto it = ids.find(order); it != ids.end()) return it->second;
    SortOrder prefix;
    prefix.reserve(order.size());
    for (size_t len = 0;; ++len) {
      if (ids.find(prefix) == ids.end()) {
        ids.emplace(prefix, static_cast<OrderId>(orders_.size()));
        orders_.push_back(prefix);
      }
      if (len == order.size()) break;
      prefix.push_back(order[len]);
    }
    return static_cast<OrderId>(orders_.size()) - 1;
  };
  intern({});

  // Classes first, with every scan's clustered-index order: indexed
  // selections and index nested-loops joins read it from their child.
  const std::vector<EqId> classes = memo.AllClasses();
  for (EqId c : classes) {
    class_ops_[c] = memo.ClassOps(c);
    is_base_[c] = memo.IsBaseRelation(c) ? 1 : 0;
    size_bytes_[c] = stats->ClassStats(c).SizeBytes();
    for (OpId oid : class_ops_[c]) {
      const MemoOp& op = memo.op(oid);
      if (op.kind != LogicalOp::kScan) continue;
      auto table_res = memo.catalog()->GetTable(op.table);
      assert(table_res.ok());
      SortOrder order;
      if (const IndexDef* idx = table_res.ValueOrDie()->clustered_index()) {
        for (const auto& col : idx->key_columns) order.emplace_back(op.alias, col);
      }
      op_info_[oid].order = intern(order);
    }
  }
  // The first clustered scan of base class `c` whose leading key column
  // satisfies `leads`, or -1.
  auto clustered_scan = [&](EqId c, auto leads) -> OpId {
    if (!is_base_[c]) return -1;
    for (OpId cid : class_ops_[c]) {
      if (memo.op(cid).kind != LogicalOp::kScan) continue;
      const SortOrder& order = orders_[op_info_[cid].order];
      if (!order.empty() && leads(order[0])) return cid;
    }
    return -1;
  };

  for (OpId oid = 0; oid < memo.num_ops(); ++oid) {
    const MemoOp& op = memo.op(oid);
    if (!op.deleted) {
      for (EqId child : op.children) children_.push_back(memo.Find(child));
    }
    child_begin_[oid + 1] = static_cast<int32_t>(children_.size());
  }
  for (EqId c : classes) {
    for (OpId oid : class_ops_[c]) {
      const MemoOp& op = memo.op(oid);
      const ClassSpan kids = Children(oid);
      OpInfo& info = op_info_[oid];
      switch (op.kind) {
        case LogicalOp::kScan:
        case LogicalOp::kProject:
        case LogicalOp::kBatch:
          break;
        case LogicalOp::kSelect: {
          // Indexed selection on a base relation's clustered index when
          // some conjunct constrains the leading key column.
          const OpId scan = clustered_scan(kids[0], [&](const ColumnRef& lead) {
            for (const auto& cmp : op.predicate.conjuncts()) {
              if (cmp.column == lead) return true;
            }
            return false;
          });
          if (scan < 0) break;
          const ColumnRef& lead = orders_[op_info_[scan].order][0];
          const RelStats& child_stats = stats->ClassStats(kids[0]);
          double lead_sel = 1.0;
          for (const auto& cmp : op.predicate.conjuncts()) {
            if (cmp.column == lead) {
              lead_sel *= stats->Selectivity(cmp, child_stats);
            }
          }
          info.order = op_info_[scan].order;
          info.index_scan = scan;
          info.index_factor = lead_sel;
          break;
        }
        case LogicalOp::kJoin: {
          const RelStats& ls = stats->ClassStats(kids[0]);
          const RelStats& rs = stats->ClassStats(kids[1]);
          SortOrder left;
          SortOrder right;
          info.resolvable = true;
          for (const auto& cond : op.join_predicate.conditions()) {
            if (ls.Find(cond.left) != nullptr && rs.Find(cond.right) != nullptr) {
              left.push_back(cond.left);
              right.push_back(cond.right);
            } else if (ls.Find(cond.right) != nullptr &&
                       rs.Find(cond.left) != nullptr) {
              left.push_back(cond.right);
              right.push_back(cond.left);
            } else {
              info.resolvable = false;
              break;
            }
          }
          if (!info.resolvable) break;
          info.order = intern(left);
          info.right_order = intern(right);
          // Index nested-loops join: the inner's first clustered scan whose
          // leading key is the first right join key.
          if (right.empty()) break;
          const OpId scan = clustered_scan(
              kids[1], [&](const ColumnRef& lead) { return lead == right[0]; });
          if (scan < 0) break;
          const ColumnStat* key_stat = rs.Find(right[0]);
          info.index_scan = scan;
          info.index_factor =
              rs.rows /
              std::max(1.0, key_stat != nullptr ? key_stat->distinct : 1.0);
          break;
        }
        case LogicalOp::kAggregate:
          info.order = intern(op.group_by);
          break;
      }
    }
  }
  // Prefix and column tables of every interned order; then the projected
  // columns as column ids (a column no order contains can never truncate
  // one, so it needs no id).
  std::map<ColumnRef, int32_t> column_ids;
  order_len_.resize(orders_.size());
  prefix_begin_.resize(orders_.size());
  for (size_t a = 0; a < orders_.size(); ++a) {
    const SortOrder& order = orders_[a];
    order_len_[a] = static_cast<int32_t>(order.size());
    prefix_begin_[a] = static_cast<int32_t>(prefixes_.size());
    for (size_t len = 0; len <= order.size(); ++len) {
      prefixes_.push_back(
          ids.at(SortOrder(order.begin(), order.begin() + len)));
      columns_.push_back(-1);
      if (len < order.size()) {
        columns_.back() = column_ids
                              .emplace(order[len],
                                       static_cast<int32_t>(column_ids.size()))
                              .first->second;
      }
    }
  }
  kept_begin_.assign(memo.num_ops() + 1, 0);
  for (OpId oid = 0; oid < memo.num_ops(); ++oid) {
    const MemoOp& op = memo.op(oid);
    if (op.kind == LogicalOp::kProject && !op.deleted) {
      for (const auto& col : op.project_columns) {
        auto it = column_ids.find(col);
        if (it != column_ids.end()) kept_.push_back(it->second);
      }
      std::sort(kept_.begin() + kept_begin_[oid], kept_.end());
    }
    kept_begin_[oid + 1] = static_cast<int32_t>(kept_.size());
  }
}

void SearchIndex::BuildCones(const Memo& memo) {
  // Parent classes of every class through live operators, as one flat
  // list (Memo::AncestorClasses walks the same edges).
  const int n = memo.num_classes();
  std::vector<int32_t> parent_begin(n + 1, 0);
  for (EqId c = 0; c < n; ++c) {
    for (OpId oid : class_ops_[c]) {
      for (EqId child : Children(oid)) ++parent_begin[child + 1];
    }
  }
  for (int c = 0; c < n; ++c) parent_begin[c + 1] += parent_begin[c];
  std::vector<EqId> parents(parent_begin[n]);
  std::vector<int32_t> fill(parent_begin.begin(), parent_begin.end() - 1);
  for (EqId c = 0; c < n; ++c) {
    for (OpId oid : class_ops_[c]) {
      for (EqId child : Children(oid)) parents[fill[child]++] = c;
    }
  }
  // Breadth-first from each class; the cone's own range doubles as the
  // queue and `seen` holds the class whose cone last reached a class.
  std::vector<EqId> seen(n, -1);
  cone_begin_.assign(n + 1, 0);
  for (EqId c = 0; c < n; ++c) {
    const size_t start = cones_.size();
    if (!class_ops_[c].empty()) {
      cones_.push_back(c);
      seen[c] = c;
      for (size_t i = start; i < cones_.size(); ++i) {
        const EqId cls = cones_[i];
        for (int32_t p = parent_begin[cls]; p < parent_begin[cls + 1]; ++p) {
          if (seen[parents[p]] != c) {
            seen[parents[p]] = c;
            cones_.push_back(parents[p]);
          }
        }
      }
      std::sort(cones_.begin() + start, cones_.end());
    }
    cone_begin_[c + 1] = static_cast<int32_t>(cones_.size());
  }
}

OrderId SearchIndex::ProjectedOrder(OpId project, OrderId order) const {
  const int32_t* cols = &columns_[prefix_begin_[order]];
  const int32_t* kept_begin = kept_.data() + kept_begin_[project];
  const int32_t* kept_end = kept_.data() + kept_begin_[project + 1];
  int keep = 0;
  while (keep < order_len_[order] &&
         std::binary_search(kept_begin, kept_end, cols[keep])) {
    ++keep;
  }
  return Prefix(order, keep);
}

/// The first strictly cheapest candidate offered that satisfies the
/// required order — the choice of one compute miss, kept without building
/// or listing candidates.
class PlanSearch::Best {
 public:
  Best(const SearchIndex& index, OrderId required)
      : index_(index), required_(required) {}

  /// Offers a root `op` implementing memo operator `oid` (-1 for the sort
  /// enforcer) in `order`, of own cost `op_cost` and total cost `total`.
  void Offer(PhysOp op, OpId oid, OrderId order, double op_cost, double total) {
    if (!index_.Satisfies(order, required_)) return;
    if (!best_.found() || total < best_.total) {
      best_ = Winner{total, op_cost, order, op, oid};
    }
  }

  const Winner& winner() const { return best_; }

 private:
  const SearchIndex& index_;
  const OrderId required_;
  Winner best_;
};

PlanSearch::PlanSearch(Memo* memo, StatsEstimator* stats,
                       const CostModel& cost_model, ElementSet materialized,
                       SearchOptions options,
                       std::shared_ptr<const SearchIndex> index)
    : memo_(memo),
      stats_(stats),
      cm_(cost_model),
      options_(options),
      index_(std::move(index)),
      mat_(std::move(materialized)),
      heads_(memo->num_classes(), -1) {
  assert(index_ != nullptr);
  assert(mat_.universe_size() == memo->num_classes());
  slots_.reserve(memo->num_classes());
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
  cone_ = index_->Cone(toggled_);
  heads_.assign(cone_.size(), -1);
  slots_.reserve(2 * cone_.size());
}

bool PlanSearch::IsMaterialized(EqId eq) const {
  if (base_ == nullptr) return mat_.Contains(eq);
  if (eq == toggled_) return toggled_materialized_;
  return base_->mat_.Contains(eq);
}

PlanSearch::ClassRef PlanSearch::Locate(EqId eq) const {
  if (base_ == nullptr) return {eq, eq};
  const EqId* it = std::lower_bound(cone_.begin(), cone_.end(), eq);
  const bool in_cone = it != cone_.end() && *it == eq;
  return {eq, in_cone ? static_cast<int32_t>(it - cone_.begin()) : -1};
}

int32_t PlanSearch::FindSlot(ClassRef c, OrderId required) const {
  int32_t i = -1;
  if (c.pos >= 0) {
    i = heads_[c.pos];
  } else {
    for (const auto& [cls, head] : outside_heads_) {
      if (cls == c.eq) i = head;
    }
  }
  for (; i >= 0; i = slots_[i].next) {
    if (slots_[i].required == required) return i;
  }
  return -1;
}

int32_t PlanSearch::FindOrAddSlot(ClassRef c, OrderId required) {
  if (const int32_t found = FindSlot(c, required); found >= 0) return found;
  int32_t* head = nullptr;
  if (c.pos >= 0) {
    head = &heads_[c.pos];
  } else {
    for (auto& [cls, h] : outside_heads_) {
      if (cls == c.eq) head = &h;
    }
    if (head == nullptr) head = &outside_heads_.emplace_back(c.eq, -1).second;
  }
  int32_t idx;
  if (free_ >= 0) {
    idx = free_;
    free_ = slots_[idx].next;
    slots_[idx] = Slot{};
  } else {
    idx = static_cast<int32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[idx].required = required;
  slots_[idx].next = *head;
  *head = idx;
  return idx;
}

const PlanSearch::Slot* PlanSearch::BaseSlot(ClassRef c,
                                             OrderId required) const {
  if (base_ == nullptr || c.pos >= 0) return nullptr;
  for (int32_t i = base_->heads_[c.eq]; i >= 0; i = base_->slots_[i].next) {
    if (base_->slots_[i].required == required) return &base_->slots_[i];
  }
  return nullptr;
}

void PlanSearch::ToggleMaterialized(EqId eq, bool materialized) {
  assert(base_ == nullptr && "toggle the base, not an overlay");
  eq = memo_->Find(eq);
  if (materialized) {
    mat_.Add(eq);
  } else {
    mat_.Remove(eq);
  }
  for (EqId ancestor : index_->Cone(eq)) {
    int32_t& head = heads_[ancestor];
    if (head < 0) continue;
    int32_t tail = head;
    while (slots_[tail].next >= 0) tail = slots_[tail].next;
    slots_[tail].next = free_;
    free_ = head;
    head = -1;
  }
  built_.clear();
}

double PlanSearch::WriteCost(EqId eq) const {
  return cm_.SeqWriteCost(Blocks(memo_->Find(eq)));
}

double PlanSearch::ReadCost(EqId eq) const {
  return cm_.SeqReadCost(Blocks(memo_->Find(eq)));
}

OrderId PlanSearch::MaterializedOrder(ClassRef c) {
  const Winner compute = Compute(c, kAnyOrder);
  return compute.found() ? compute.out_order : kAnyOrder;
}

PlanSearch::UseWinner PlanSearch::Use(ClassRef c, OrderId required) {
  const int32_t idx = FindSlot(c, required);
  if (idx >= 0 && (slots_[idx].state & kUseDone)) return slots_[idx].use;
  if (const Slot* reused = BaseSlot(c, required);
      reused != nullptr && (reused->state & kUseDone)) {
    ++reuse_hits_;
    return reused->use;
  }

  const Winner compute = Compute(c, required);
  UseWinner best{compute.total, compute.out_order, UseSource::kCompute};
  if (IsMaterialized(c.eq)) {
    // Read the materialized result, which is stored in its compute plan's
    // order; sort on top only if the required order is not satisfied.
    const OrderId stored = MaterializedOrder(c);
    UseWinner read{ReadCost(c.eq), stored, UseSource::kRead};
    if (!index_->Satisfies(stored, required)) {
      read = UseWinner{cm_.SortCost(Blocks(c.eq)) + read.total, required,
                       UseSource::kSortedRead};
    }
    if (!best.found() || read.total < best.total) best = read;
  }
  Slot& slot = slots_[FindOrAddSlot(c, required)];
  slot.state |= kUseDone;
  slot.use = best;
  return best;
}

PlanSearch::Winner PlanSearch::Compute(ClassRef c, OrderId required) {
  int32_t idx = FindSlot(c, required);
  if (idx >= 0) {
    const Slot& slot = slots_[idx];
    if (slot.state & kComputeDone) return slot.compute;
    // Cycle guard; a well-formed LQDAG is acyclic so this never fires.
    if (slot.state & kComputing) return Winner{};
  }
  if (const Slot* reused = BaseSlot(c, required);
      reused != nullptr && (reused->state & kComputeDone)) {
    ++reuse_hits_;
    return reused->compute;
  }
  if (idx < 0) idx = FindOrAddSlot(c, required);
  slots_[idx].state |= kComputing;
  const Winner best = ComputeUncached(c, required);
  Slot& slot = slots_[idx];  // the pool may have grown meanwhile
  slot.state = static_cast<uint8_t>((slot.state & ~kComputing) | kComputeDone);
  slot.compute = best;
  return best;
}

PlanSearch::Winner PlanSearch::ComputeUncached(ClassRef c, OrderId required) {
  const EqId eq = c.eq;
  // Keep the first cheapest candidate that satisfies the required order
  // natively...
  Best best(*index_, required);
  for (OpId oid : index_->ClassOps(eq)) {
    switch (memo_->op(oid).kind) {
      case LogicalOp::kScan:
        AddScanCandidates(oid, eq, &best);
        break;
      case LogicalOp::kSelect:
        AddSelectCandidates(oid, &best);
        break;
      case LogicalOp::kJoin:
        AddJoinCandidates(oid, eq, &best);
        break;
      case LogicalOp::kAggregate:
        AddAggregateCandidates(oid, &best);
        break;
      case LogicalOp::kProject:
        AddProjectCandidates(oid, eq, required, &best);
        break;
      case LogicalOp::kBatch:
        AddBatchCandidates(oid, &best);
        break;
    }
  }
  // ... and offer the external-sort enforcer on the best unordered plan.
  if (required != kAnyOrder) {
    const Winner unordered = Compute(c, kAnyOrder);
    if (unordered.found()) {
      const double sort_cost = cm_.SortCost(Blocks(eq));
      best.Offer(PhysOp::kSort, -1, required, sort_cost,
                 sort_cost + unordered.total);
    }
  }
  return best.winner();
}

void PlanSearch::AddScanCandidates(OpId oid, EqId eq, Best* out) {
  ++num_costings_;
  const double cost = cm_.SeqReadCost(Blocks(eq));
  out->Offer(PhysOp::kTableScan, oid, index_->Info(oid).order, cost, cost);
}

void PlanSearch::AddSelectCandidates(OpId oid, Best* out) {
  const EqId child = index_->Children(oid)[0];
  const double in_blocks = Blocks(child);

  // Pipelined filter over the child's unordered best plan; it keeps that
  // plan's order. Ordered requirements are served by the enforcer.
  {
    ++num_costings_;
    const UseWinner child_plan = Use(Locate(child), kAnyOrder);
    if (child_plan.found()) {
      const double cost = cm_.CpuPassCost(in_blocks);
      out->Offer(PhysOp::kFilter, oid, child_plan.out_order, cost,
                 cost + child_plan.total);
    }
  }

  // Indexed selection on a base relation's clustered index when some
  // conjunct constrains the leading key column.
  const SearchIndex::OpInfo& info = index_->Info(oid);
  if (info.index_scan >= 0) {
    ++num_costings_;
    const double matching_blocks =
        std::max(1.0, info.index_factor * in_blocks);
    const double cost = cm_.IndexedSelectionCost(matching_blocks);
    out->Offer(PhysOp::kIndexScan, oid, info.order, cost, cost);
  }
}

void PlanSearch::AddJoinCandidates(OpId oid, EqId eq, Best* out) {
  const SearchIndex::OpInfo& info = index_->Info(oid);
  if (!info.resolvable) return;
  const EqId left = index_->Children(oid)[0];
  const EqId right = index_->Children(oid)[1];
  const double lb = Blocks(left);
  const double rb = Blocks(right);
  const double ob = Blocks(eq);

  // Block nested-loops join: outer = left (commutativity supplies the swap as
  // a separate memo operator). The inner must be rescannable: base relations
  // and materialized nodes are; otherwise it is computed once and spooled to
  // a temporary file.
  {
    ++num_costings_;
    const UseWinner outer = Use(Locate(left), kAnyOrder);
    if (outer.found()) {
      const double passes = cm_.BnlPasses(lb);
      if (IsMaterialized(right) || index_->IsBaseRelation(right)) {
        const double inner_cost = passes * cm_.SeqReadCost(rb);
        const double cost = inner_cost + cm_.CpuPassCost(ob);
        out->Offer(PhysOp::kBlockNLJoin, oid, kAnyOrder, cost,
                   cost + outer.total);
      } else {
        const UseWinner inner = Use(Locate(right), kAnyOrder);
        if (!inner.found()) return;
        const double inner_cost =
            cm_.SeqWriteCost(rb) + passes * cm_.SeqReadCost(rb);
        const double cost = inner_cost + cm_.CpuPassCost(ob);
        out->Offer(PhysOp::kBlockNLJoin, oid, kAnyOrder, cost,
                   cost + outer.total + inner.total);
      }
    }
  }

  // Index nested-loops join (optional extension): probe the inner's
  // clustered index once per outer row. Wins when the outer is small.
  if (options_.enable_index_nl_join && info.index_scan >= 0) {
    ++num_costings_;
    const UseWinner outer = Use(Locate(left), kAnyOrder);
    if (outer.found()) {
      // Per probe: two random index-node reads plus the matching leaf data.
      const RelStats& ls = stats_->ClassStats(left);
      const RelStats& rs = stats_->ClassStats(right);
      const CostParams& p = cm_.params();
      const double blocks_per_probe = std::max(
          1.0, info.index_factor * rs.row_width_bytes / p.block_size_bytes);
      const double probe_cost =
          2.0 * (p.seek_ms + p.read_ms_per_block) +
          blocks_per_probe * (p.read_ms_per_block + p.cpu_ms_per_block);
      const double cost = ls.rows * probe_cost + cm_.CpuPassCost(ob);
      out->Offer(PhysOp::kIndexNLJoin, oid, outer.out_order, cost,
                 cost + outer.total);
    }
  }

  // Merge join: both inputs in join-key order (enforcers inserted by the
  // children's own searches when needed). Output keeps the left key order.
  if (info.order != kAnyOrder) {
    ++num_costings_;
    const UseWinner lp = Use(Locate(left), info.order);
    const UseWinner rp = Use(Locate(right), info.right_order);
    if (lp.found() && rp.found()) {
      const double cost = cm_.CpuPassCost(lb + rb + ob);
      out->Offer(PhysOp::kMergeJoin, oid, info.order, cost,
                 cost + lp.total + rp.total);
    }
  }
}

void PlanSearch::AddAggregateCandidates(OpId oid, Best* out) {
  ++num_costings_;
  const EqId child = index_->Children(oid)[0];
  // Sort-based aggregation: input in group-by order, output stays in it (a
  // scalar aggregate has the empty order and is a single CPU pass).
  const OrderId group_order = index_->Info(oid).order;
  const UseWinner child_plan = Use(Locate(child), group_order);
  if (child_plan.found()) {
    const double cost = cm_.CpuPassCost(Blocks(child));
    out->Offer(PhysOp::kSortAggregate, oid, group_order, cost,
               cost + child_plan.total);
  }
}

void PlanSearch::AddProjectCandidates(OpId oid, EqId eq, OrderId required,
                                      Best* out) {
  ++num_costings_;
  const EqId child = index_->Children(oid)[0];
  // Projection preserves its child's order over surviving columns; pass the
  // requirement straight down (required columns are produced by this class,
  // hence also by the child).
  const UseWinner child_plan = Use(Locate(child), required);
  if (!child_plan.found()) return;
  const double cost = cm_.CpuPassCost(Blocks(eq));
  out->Offer(PhysOp::kProject, oid,
             index_->ProjectedOrder(oid, child_plan.out_order), cost,
             cost + child_plan.total);
}

void PlanSearch::AddBatchCandidates(OpId oid, Best* out) {
  ++num_costings_;
  // In an overlay the batch root is in every cone, but most of its children
  // are not: their winners come straight from the base's table.
  double total = 0.0;
  for (EqId c : index_->Children(oid)) {
    const UseWinner plan = Use(Locate(c), kAnyOrder);
    if (!plan.found()) return;
    total += plan.total;
  }
  out->Offer(PhysOp::kBatchRoot, oid, kAnyOrder, 0.0, total);
}

namespace {

/// Key of a built plan: its class, order, and use/compute flag.
uint64_t BuiltKey(EqId eq, OrderId order, bool use) {
  return (static_cast<uint64_t>(eq) << 32) |
         (static_cast<uint64_t>(order) << 1) | (use ? 1u : 0u);
}

}  // namespace

PlanNodePtr PlanSearch::BuildUse(EqId eq, OrderId required) {
  const UseWinner w = Use(Locate(eq), required);
  if (!w.found()) return nullptr;
  const uint64_t key = BuiltKey(eq, required, /*use=*/true);
  if (auto it = built_.find(key); it != built_.end()) return it->second;
  PlanNodePtr plan;
  if (w.source == UseSource::kCompute) {
    plan = BuildCompute(eq, required);
  } else {
    plan = MakePlanNode(PhysOp::kReadMaterialized, eq,
                        index_->Order(MaterializedOrder(Locate(eq))),
                        ReadCost(eq), "", {});
    if (w.source == UseSource::kSortedRead) {
      plan = MakePlanNode(PhysOp::kSort, eq, index_->Order(required),
                          cm_.SortCost(Blocks(eq)), "", {std::move(plan)});
    }
  }
  assert(plan->total_cost == w.total);
  built_.emplace(key, plan);
  return plan;
}

PlanNodePtr PlanSearch::BuildCompute(EqId eq, OrderId required) {
  const Winner w = Compute(Locate(eq), required);
  if (!w.found()) return nullptr;
  const uint64_t key = BuiltKey(eq, required, /*use=*/false);
  if (auto it = built_.find(key); it != built_.end()) return it->second;

  std::vector<PlanNodePtr> children;
  std::string detail;
  if (w.op == PhysOp::kSort) {
    children.push_back(BuildCompute(eq, kAnyOrder));
  } else {
    const MemoOp& op = memo_->op(w.logical_op);
    const SearchIndex::ClassSpan kids = index_->Children(w.logical_op);
    const SearchIndex::OpInfo& info = index_->Info(w.logical_op);
    switch (w.op) {
      case PhysOp::kTableScan:
        detail = op.table;
        break;
      case PhysOp::kIndexScan:
        detail = memo_->op(info.index_scan).table + ": " +
                 op.predicate.ToString();
        break;
      case PhysOp::kFilter:
        detail = op.predicate.ToString();
        children.push_back(BuildUse(kids[0], kAnyOrder));
        break;
      case PhysOp::kBlockNLJoin:
        detail = op.join_predicate.ToString();
        children.push_back(BuildUse(kids[0], kAnyOrder));
        // A rescannable inner (base relation or materialized) is read as a
        // side input, not a plan child.
        if (!IsMaterialized(kids[1]) && !index_->IsBaseRelation(kids[1])) {
          children.push_back(BuildUse(kids[1], kAnyOrder));
        }
        break;
      case PhysOp::kIndexNLJoin:
        detail = op.join_predicate.ToString();
        children.push_back(BuildUse(kids[0], kAnyOrder));
        break;
      case PhysOp::kMergeJoin:
        detail = op.join_predicate.ToString();
        children.push_back(BuildUse(kids[0], info.order));
        children.push_back(BuildUse(kids[1], info.right_order));
        break;
      case PhysOp::kSortAggregate:
        for (const auto& g : op.group_by) {
          if (!detail.empty()) detail += ", ";
          detail += g.ToString();
        }
        children.push_back(BuildUse(kids[0], info.order));
        break;
      case PhysOp::kProject:
        children.push_back(BuildUse(kids[0], required));
        break;
      case PhysOp::kBatchRoot:
        children.reserve(kids.size());
        for (EqId c : kids) children.push_back(BuildUse(c, kAnyOrder));
        break;
      case PhysOp::kSort:
      case PhysOp::kReadMaterialized:
        assert(false && "not a compute winner of a memo operator");
        break;
    }
  }
  PlanNodePtr plan =
      MakePlanNode(w.op, eq, index_->Order(w.out_order), w.op_cost,
                   std::move(detail), std::move(children), w.logical_op);
  assert(plan->total_cost == w.total);
  built_.emplace(key, plan);
  return plan;
}

}  // namespace mqo
