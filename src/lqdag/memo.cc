#include "lqdag/memo.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <set>
#include <sstream>

#include "common/hash.h"
#include "common/string_util.h"

namespace mqo {

std::string MemoOp::ToString() const {
  std::ostringstream os;
  os << LogicalOpToString(kind);
  switch (kind) {
    case LogicalOp::kScan:
      os << "(" << table;
      if (alias != table) os << " AS " << alias;
      os << ")";
      break;
    case LogicalOp::kSelect:
      os << "[" << predicate.ToString() << "]";
      break;
    case LogicalOp::kJoin:
      os << "[" << join_predicate.ToString() << "]";
      break;
    case LogicalOp::kProject: {
      std::vector<std::string> parts;
      for (const auto& c : project_columns) parts.push_back(c.ToString());
      os << "[" << Join(parts, ",") << "]";
      break;
    }
    case LogicalOp::kAggregate: {
      std::vector<std::string> parts;
      for (const auto& c : group_by) parts.push_back(c.ToString());
      for (size_t i = 0; i < aggregates.size(); ++i) {
        std::string s = aggregates[i].ToString();
        if (i < output_renames.size() && !output_renames[i].empty()) {
          s += " AS " + output_renames[i];
        }
        parts.push_back(s);
      }
      os << "[" << Join(parts, ",") << "]";
      break;
    }
    case LogicalOp::kBatch:
      break;
  }
  os << " <- (";
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) os << ", ";
    os << "E" << children[i];
  }
  os << ")";
  return os.str();
}

EqId Memo::Find(EqId id) const {
  assert(id >= 0 && id < static_cast<int>(parent_link_.size()));
  while (parent_link_[id] != id) {
    const EqId parent = parent_link_[id];
    const EqId grand = parent_link_[parent];
    // Halve the path only when it actually moves: once CompressPaths has run,
    // every link is direct and this loop never writes, so concurrent Find()
    // calls stay read-only.
    if (grand != parent) parent_link_[id] = grand;
    id = grand;
  }
  return id;
}

void Memo::CompressPaths() const {
  for (EqId i = 0; i < static_cast<EqId>(parent_link_.size()); ++i) {
    EqId root = i;
    while (parent_link_[root] != root) root = parent_link_[root];
    EqId cur = i;
    while (parent_link_[cur] != root) {
      const EqId next = parent_link_[cur];
      parent_link_[cur] = root;
      cur = next;
    }
  }
}

int Memo::num_live_ops() const {
  int n = 0;
  for (const auto& op : ops_) {
    if (!op.deleted) ++n;
  }
  return n;
}

uint64_t Memo::OpSignature(const MemoOp& op) const {
  uint64_t h = HashCombine(0x5ca1ab1e, static_cast<uint64_t>(op.kind));
  switch (op.kind) {
    case LogicalOp::kScan:
      h = HashCombine(h, HashString(op.table));
      h = HashCombine(h, HashString(op.alias));
      break;
    case LogicalOp::kSelect:
      h = HashCombine(h, op.predicate.Hash());
      break;
    case LogicalOp::kJoin:
      h = HashCombine(h, op.join_predicate.Hash());
      break;
    case LogicalOp::kProject:
      for (const auto& c : op.project_columns) h = HashCombine(h, c.Hash());
      break;
    case LogicalOp::kAggregate:
      for (const auto& c : op.group_by) h = HashCombine(h, c.Hash());
      for (const auto& a : op.aggregates) h = HashCombine(h, a.Hash());
      for (const auto& r : op.output_renames) h = HashCombine(h, HashString(r));
      break;
    case LogicalOp::kBatch:
      break;
  }
  for (EqId c : op.children) {
    h = HashCombine(h, static_cast<uint64_t>(Find(c)));
  }
  return h;
}

namespace {

/// Structural equality of two ops given already-canonicalized children.
bool OpsEquivalent(const MemoOp& a, const MemoOp& b) {
  if (a.kind != b.kind || a.children != b.children) return false;
  switch (a.kind) {
    case LogicalOp::kScan:
      return a.table == b.table && a.alias == b.alias;
    case LogicalOp::kSelect:
      return a.predicate == b.predicate;
    case LogicalOp::kJoin:
      return a.join_predicate == b.join_predicate;
    case LogicalOp::kProject:
      return a.project_columns == b.project_columns;
    case LogicalOp::kAggregate:
      return a.group_by == b.group_by && a.aggregates == b.aggregates &&
             a.output_renames == b.output_renames;
    case LogicalOp::kBatch:
      return true;
  }
  return false;
}

}  // namespace

EqId Memo::AddOp(MemoOp op, EqId target) {
  // Canonicalize children first: signatures and equality assume it.
  for (EqId& c : op.children) c = Find(c);
  const uint64_t sig = OpSignature(op);

  auto it = signature_index_.find(sig);
  if (it != signature_index_.end()) {
    for (OpId existing_id : it->second) {
      const MemoOp& existing = ops_[existing_id];
      if (existing.deleted) continue;
      // Re-canonicalize the stored op's children for comparison.
      MemoOp probe = existing;
      for (EqId& c : probe.children) c = Find(c);
      if (OpsEquivalent(op, probe)) {
        EqId cls = Find(existing.owner);
        if (target >= 0 && Find(target) != cls) {
          MergeClasses(cls, Find(target));
          cls = Find(cls);
        }
        return cls;
      }
    }
  }

  // New operator node.
  EqId cls;
  if (target >= 0) {
    cls = Find(target);
  } else {
    cls = static_cast<EqId>(class_ops_.size());
    class_ops_.emplace_back();
    class_parents_.emplace_back();
    parent_link_.push_back(cls);
  }
  OpId id = static_cast<OpId>(ops_.size());
  op.owner = cls;
  // Record parent links (dedup per op so a self-join child is linked once;
  // ParentOps reports ops, not multiplicities).
  std::set<EqId> linked;
  for (EqId c : op.children) {
    if (linked.insert(c).second) class_parents_[c].push_back(id);
  }
  ops_.push_back(std::move(op));
  class_ops_[cls].push_back(id);
  signature_index_[sig].push_back(id);
  return cls;
}

void Memo::MergeClasses(EqId a, EqId b) {
  std::deque<std::pair<EqId, EqId>> worklist;
  worklist.emplace_back(a, b);
  while (!worklist.empty()) {
    auto [x, y] = worklist.front();
    worklist.pop_front();
    x = Find(x);
    y = Find(y);
    if (x == y) continue;
    // Keep the smaller id as representative for determinism.
    EqId keep = std::min(x, y);
    EqId gone = std::max(x, y);
    parent_link_[gone] = keep;
    ++num_merges_;
    attr_cache_.erase(keep);
    attr_cache_.erase(gone);
    for (OpId oid : class_ops_[gone]) {
      ops_[oid].owner = keep;
      class_ops_[keep].push_back(oid);
    }
    class_ops_[gone].clear();
    class_parents_[keep].insert(class_parents_[keep].end(),
                                class_parents_[gone].begin(),
                                class_parents_[gone].end());
    class_parents_[gone].clear();
    // Congruence closure: parents that referenced `gone` now have new
    // canonical signatures and may collide with existing ops elsewhere.
    std::vector<std::pair<EqId, EqId>> pending;
    RecanonicalizeParents(keep, &pending);
    for (auto& p : pending) worklist.push_back(p);
  }
}

void Memo::RecanonicalizeParents(EqId cls,
                                 std::vector<std::pair<EqId, EqId>>* pending) {
  // Copy: the list can grow/shrink logically while we mark duplicates.
  std::vector<OpId> parents = class_parents_[cls];
  for (OpId pid : parents) {
    MemoOp& p = ops_[pid];
    if (p.deleted) continue;
    MemoOp probe = p;
    for (EqId& c : probe.children) c = Find(c);
    const uint64_t sig = OpSignature(probe);
    auto& bucket = signature_index_[sig];
    OpId match = -1;
    for (OpId cand : bucket) {
      if (cand == pid || ops_[cand].deleted) continue;
      MemoOp cp = ops_[cand];
      for (EqId& c : cp.children) c = Find(c);
      if (OpsEquivalent(probe, cp)) {
        match = cand;
        break;
      }
    }
    if (match >= 0) {
      p.deleted = true;
      if (Find(ops_[match].owner) != Find(p.owner)) {
        pending->emplace_back(Find(ops_[match].owner), Find(p.owner));
      }
    } else {
      if (std::find(bucket.begin(), bucket.end(), pid) == bucket.end()) {
        bucket.push_back(pid);
      }
    }
  }
}

EqId Memo::Insert(const LogicalExprPtr& tree) {
  MemoOp op;
  op.kind = tree->op();
  for (const auto& child : tree->children()) {
    op.children.push_back(Insert(child));
  }
  switch (tree->op()) {
    case LogicalOp::kScan:
      op.table = tree->table();
      op.alias = tree->alias();
      break;
    case LogicalOp::kSelect:
      op.predicate = tree->predicate();
      break;
    case LogicalOp::kJoin:
      op.join_predicate = tree->join_predicate();
      break;
    case LogicalOp::kProject:
      op.project_columns = tree->project_columns();
      break;
    case LogicalOp::kAggregate:
      op.group_by = tree->group_by();
      op.aggregates = tree->aggregates();
      break;
    case LogicalOp::kBatch:
      break;
  }
  return AddOp(std::move(op));
}

EqId Memo::InsertBatch(const std::vector<LogicalExprPtr>& queries) {
  MemoOp root;
  root.kind = LogicalOp::kBatch;
  for (const auto& q : queries) {
    root.children.push_back(Insert(NormalizeTree(q)));
  }
  root_ = AddOp(std::move(root));
  return Find(root_);
}

std::vector<OpId> Memo::ClassOps(EqId id) const {
  id = Find(id);
  std::vector<OpId> out;
  for (OpId oid : class_ops_[id]) {
    if (!ops_[oid].deleted) out.push_back(oid);
  }
  return out;
}

std::vector<OpId> Memo::ParentOps(EqId id) const {
  id = Find(id);
  std::vector<OpId> out;
  std::set<OpId> seen;
  for (OpId oid : class_parents_[id]) {
    if (!ops_[oid].deleted && seen.insert(oid).second) out.push_back(oid);
  }
  return out;
}

std::vector<EqId> Memo::ParentClasses(EqId id) const {
  std::set<EqId> classes;
  for (OpId oid : ParentOps(id)) {
    classes.insert(Find(ops_[oid].owner));
  }
  return std::vector<EqId>(classes.begin(), classes.end());
}

std::vector<EqId> Memo::AncestorClasses(EqId id) const {
  // Breadth-first over live parent operators; `out` doubles as the queue.
  std::vector<char> seen(class_ops_.size(), 0);
  std::vector<EqId> out = {Find(id)};
  seen[out[0]] = 1;
  for (size_t i = 0; i < out.size(); ++i) {
    for (OpId oid : class_parents_[out[i]]) {
      if (ops_[oid].deleted) continue;
      const EqId parent = Find(ops_[oid].owner);
      if (!seen[parent]) {
        seen[parent] = 1;
        out.push_back(parent);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ColumnRef> Memo::ComputeAttributes(EqId id) {
  id = Find(id);
  std::vector<OpId> ops = ClassOps(id);
  assert(!ops.empty());
  const MemoOp& op = ops_[ops.front()];
  std::vector<ColumnRef> out;
  switch (op.kind) {
    case LogicalOp::kScan: {
      auto table = catalog_->GetTable(op.table);
      assert(table.ok());
      for (const auto& col : table.ValueOrDie()->columns()) {
        out.emplace_back(op.alias, col.name);
      }
      break;
    }
    case LogicalOp::kSelect:
      out = Attributes(op.children[0]);
      break;
    case LogicalOp::kJoin: {
      out = Attributes(op.children[0]);
      auto right = Attributes(op.children[1]);
      out.insert(out.end(), right.begin(), right.end());
      break;
    }
    case LogicalOp::kProject:
      out = op.project_columns;
      break;
    case LogicalOp::kAggregate: {
      out = op.group_by;
      for (size_t i = 0; i < op.aggregates.size(); ++i) {
        if (i < op.output_renames.size() && !op.output_renames[i].empty()) {
          out.emplace_back("", op.output_renames[i]);
        } else {
          out.push_back(op.aggregates[i].OutputColumn());
        }
      }
      break;
    }
    case LogicalOp::kBatch:
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::vector<ColumnRef>& Memo::Attributes(EqId id) {
  id = Find(id);
  auto it = attr_cache_.find(id);
  if (it != attr_cache_.end()) return it->second;
  auto [ins, _] = attr_cache_.emplace(id, ComputeAttributes(id));
  return ins->second;
}

bool Memo::IsBaseRelation(EqId id) const {
  for (OpId oid : ClassOps(id)) {
    if (ops_[oid].kind == LogicalOp::kScan) return true;
  }
  return false;
}

std::vector<EqId> Memo::AllClasses() const {
  std::vector<EqId> out;
  for (EqId i = 0; i < static_cast<EqId>(class_ops_.size()); ++i) {
    if (Find(i) == i && !ClassOps(i).empty()) out.push_back(i);
  }
  return out;
}

std::vector<EqId> Memo::TopologicalClasses() const {
  std::vector<EqId> order;
  std::set<EqId> visited;
  // Iterative DFS post-order over canonical classes.
  std::vector<std::pair<EqId, size_t>> stack;
  for (EqId start : AllClasses()) {
    if (visited.count(start)) continue;
    stack.emplace_back(start, 0);
    visited.insert(start);
    while (!stack.empty()) {
      auto& [cls, child_idx] = stack.back();
      // Gather child classes of all live ops lazily.
      std::vector<EqId> kids;
      for (OpId oid : ClassOps(cls)) {
        for (EqId c : ops_[oid].children) kids.push_back(Find(c));
      }
      std::sort(kids.begin(), kids.end());
      kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
      if (child_idx < kids.size()) {
        EqId next = kids[child_idx++];
        if (!visited.count(next)) {
          visited.insert(next);
          stack.emplace_back(next, 0);
        }
      } else {
        order.push_back(cls);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::string Memo::ToString() const {
  std::ostringstream os;
  for (EqId cls : TopologicalClasses()) {
    os << "E" << cls;
    if (cls == root()) os << " (root)";
    os << ":\n";
    for (OpId oid : ClassOps(cls)) {
      os << "  " << ops_[oid].ToString() << "\n";
    }
  }
  return os.str();
}

std::vector<EqId> ShareableNodes(const Memo& memo) {
  std::vector<EqId> out;
  for (EqId cls : memo.AllClasses()) {
    if (cls == memo.root()) continue;
    if (memo.IsBaseRelation(cls)) continue;
    if (memo.ParentClasses(cls).size() >= 2) out.push_back(cls);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mqo
