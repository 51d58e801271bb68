// Physical plan trees produced by the optimizer.
//
// The physical operator set matches the paper's setup (Section 6): relation
// scan, indexed selection, filter, block nested-loops join, merge join,
// external-sort enforcer, and sort-based aggregation, plus the leaf that
// reads a materialized intermediate result and the dummy batch root.

#ifndef MQO_PHYSICAL_PLAN_H_
#define MQO_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/column_ref.h"
#include "lqdag/memo.h"

namespace mqo {

/// Physical operator kind.
enum class PhysOp {
  kTableScan,
  kIndexScan,
  kFilter,
  kBlockNLJoin,
  kIndexNLJoin,
  kMergeJoin,
  kSort,
  kSortAggregate,
  kProject,
  kReadMaterialized,
  kBatchRoot,
};

const char* PhysOpToString(PhysOp op);

struct PlanNode;
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// One node of a physical plan. `total_cost` includes children; plans are
/// immutable and shared freely between alternatives.
struct PlanNode {
  PhysOp op = PhysOp::kTableScan;
  EqId eq = -1;              ///< Equivalence class this node produces.
  OpId logical_op = -1;      ///< Memo operator implemented (-1 for enforcers,
                             ///< reads, and the batch root).
  SortOrder output_order;    ///< Sort order of the produced stream.
  double op_cost = 0.0;      ///< This operator's own cost contribution.
  double total_cost = 0.0;   ///< op_cost + sum of children's total_cost.
  std::string detail;        ///< Predicate / condition / table annotation
                             ///< for PlanToString; sorts and reads render
                             ///< theirs from the node itself.
  std::vector<PlanNodePtr> children;
};

/// Builds a node, deriving total_cost from op_cost + children.
PlanNodePtr MakePlanNode(PhysOp op, EqId eq, SortOrder order, double op_cost,
                         std::string detail, std::vector<PlanNodePtr> children,
                         OpId logical_op = -1);

/// Indented multi-line rendering with per-node costs.
std::string PlanToString(const PlanNodePtr& plan, int indent = 0);

/// Counts nodes of a given physical operator kind in the plan tree.
int CountPlanOps(const PlanNodePtr& plan, PhysOp op);

}  // namespace mqo

#endif  // MQO_PHYSICAL_PLAN_H_
