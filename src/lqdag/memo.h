// The LQDAG memo: an AND-OR DAG over logical expressions.
//
// Equivalence classes (OR-nodes) group operator nodes (AND-nodes) that
// produce the same result set. Operator nodes are hash-consed on a canonical
// signature (operator kind + payload + canonical child class ids), which
// makes common subexpressions across a batch of queries unify into a single
// class in one bottom-up pass — the hashing-based common-subexpression
// identification of Roy et al. [23] that the paper builds on.
//
// Class merging uses congruence closure: when a transformation produces an
// operator whose signature already exists in a different class, the two
// classes are merged and every parent operator is re-canonicalized, which can
// cascade further merges (e.g. associativity proves (A⋈B)⋈C ≡ A⋈(B⋈C)).

#ifndef MQO_LQDAG_MEMO_H_
#define MQO_LQDAG_MEMO_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/logical_expr.h"
#include "catalog/catalog.h"
#include "common/status.h"

namespace mqo {

/// Identifier of an equivalence class (OR-node). Always pass through
/// Memo::Find() to obtain the canonical representative after merges.
using EqId = int;

/// Identifier of an operator node (AND-node).
using OpId = int;

/// An AND-node: a logical operator with equivalence-class children.
struct MemoOp {
  LogicalOp kind = LogicalOp::kScan;
  std::vector<EqId> children;

  // Payload (fields used depend on `kind`).
  std::string table;
  std::string alias;
  Predicate predicate;
  JoinPredicate join_predicate;
  std::vector<ColumnRef> project_columns;
  std::vector<ColumnRef> group_by;
  std::vector<AggExpr> aggregates;
  /// For re-aggregation ops created by aggregate subsumption: output names to
  /// expose instead of the synthesized agg-of-agg names, so the op's schema
  /// matches its class. Parallel to `aggregates`; empty when unused.
  std::vector<std::string> output_renames;

  /// Class this operator belongs to (kept canonical by the memo).
  EqId owner = -1;
  /// True once a merge discovered this op duplicates another.
  bool deleted = false;

  std::string ToString() const;
};

/// The memo structure.
class Memo {
 public:
  explicit Memo(const Catalog* catalog) : catalog_(catalog) {}

  /// Inserts a (normalized) logical tree bottom-up; returns its class.
  EqId Insert(const LogicalExprPtr& tree);

  /// Inserts the whole batch under a dummy Batch root; returns the root class
  /// and records it (root()).
  EqId InsertBatch(const std::vector<LogicalExprPtr>& queries);

  /// Adds an operator node. If an op with the same canonical signature exists:
  /// returns its class (merging it with `target` when both are given and
  /// differ). Otherwise creates the op in `target` (or a fresh class when
  /// target < 0). Returns the canonical class of the op.
  EqId AddOp(MemoOp op, EqId target = -1);

  /// Canonical representative of a class (union-find with path compression).
  EqId Find(EqId id) const;

  /// Fully compresses every union-find path so each class links directly to
  /// its root. After this, Find() performs no writes until the next merge —
  /// which makes concurrent Find() calls from parallel plan searches pure
  /// reads. The batch optimizer calls this before fanning evaluations out.
  void CompressPaths() const;

  int num_classes() const { return static_cast<int>(class_ops_.size()); }
  int num_ops() const { return static_cast<int>(ops_.size()); }

  /// Number of live (non-deleted) operator nodes.
  int num_live_ops() const;

  const MemoOp& op(OpId id) const { return ops_[id]; }

  /// Live operator ids of the canonical class of `id`.
  std::vector<OpId> ClassOps(EqId id) const;

  /// Live operator ids that use class `id` as a child (parents).
  std::vector<OpId> ParentOps(EqId id) const;

  /// Distinct canonical classes of the parents of `id`.
  std::vector<EqId> ParentClasses(EqId id) const;

  /// All classes reachable upward from `id` via parent operators, including
  /// `id` itself. These are exactly the classes whose best plans can change
  /// when `id`'s materialization status flips (the incremental
  /// re-optimization of Roy et al., Section 5.1). Ascending. Plan searches
  /// read these from a SearchIndex, which computes them once per optimizer.
  std::vector<EqId> AncestorClasses(EqId id) const;

  /// Output attribute set (alias-qualified columns) of a class. Cached.
  const std::vector<ColumnRef>& Attributes(EqId id);

  /// True iff the class contains a base-relation scan operator.
  bool IsBaseRelation(EqId id) const;

  /// The batch root class (set by InsertBatch), or -1.
  EqId root() const { return root_ >= 0 ? Find(root_) : -1; }

  const Catalog* catalog() const { return catalog_; }

  /// All canonical class ids, children before parents (topological).
  std::vector<EqId> TopologicalClasses() const;

  /// Canonical classes in arbitrary order.
  std::vector<EqId> AllClasses() const;

  /// Multi-line dump of the whole DAG for debugging.
  std::string ToString() const;

  /// Number of class merges performed (diagnostic; grows as transformation
  /// rules prove equivalences).
  int num_merges() const { return num_merges_; }

 private:
  friend class MemoRewriter;

  uint64_t OpSignature(const MemoOp& op) const;
  void MergeClasses(EqId a, EqId b);
  void RecanonicalizeParents(EqId cls, std::vector<std::pair<EqId, EqId>>* pending);
  std::vector<ColumnRef> ComputeAttributes(EqId id);

  const Catalog* catalog_;
  std::vector<MemoOp> ops_;
  std::vector<std::vector<OpId>> class_ops_;     // per class-id (not canonical)
  std::vector<std::vector<OpId>> class_parents_; // ops referencing this class
  mutable std::vector<EqId> parent_link_;        // union-find
  std::unordered_map<uint64_t, std::vector<OpId>> signature_index_;
  std::unordered_map<EqId, std::vector<ColumnRef>> attr_cache_;
  EqId root_ = -1;
  int num_merges_ = 0;
};

/// Shareable equivalence nodes: classes referenced by operators in at least
/// two distinct parent classes (so some consolidated plan can compute them
/// once and use them at least twice), excluding base relations (already
/// stored on disk) and the batch root. This is the universe the MQO
/// algorithms search over (Section 2.2 / 5.1 of the paper).
std::vector<EqId> ShareableNodes(const Memo& memo);

}  // namespace mqo

#endif  // MQO_LQDAG_MEMO_H_
