#include "physical/plan.h"

#include <sstream>

#include "common/string_util.h"

namespace mqo {

const char* PhysOpToString(PhysOp op) {
  switch (op) {
    case PhysOp::kTableScan:
      return "TableScan";
    case PhysOp::kIndexScan:
      return "IndexScan";
    case PhysOp::kFilter:
      return "Filter";
    case PhysOp::kBlockNLJoin:
      return "BlockNLJoin";
    case PhysOp::kIndexNLJoin:
      return "IndexNLJoin";
    case PhysOp::kMergeJoin:
      return "MergeJoin";
    case PhysOp::kSort:
      return "Sort";
    case PhysOp::kSortAggregate:
      return "SortAggregate";
    case PhysOp::kProject:
      return "Project";
    case PhysOp::kReadMaterialized:
      return "ReadMaterialized";
    case PhysOp::kBatchRoot:
      return "BatchRoot";
  }
  return "?";
}

PlanNodePtr MakePlanNode(PhysOp op, EqId eq, SortOrder order, double op_cost,
                         std::string detail, std::vector<PlanNodePtr> children,
                         OpId logical_op) {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->eq = eq;
  node->logical_op = logical_op;
  node->output_order = std::move(order);
  node->op_cost = op_cost;
  node->detail = std::move(detail);
  node->total_cost = op_cost;
  for (const auto& c : children) node->total_cost += c->total_cost;
  node->children = std::move(children);
  return node;
}

namespace {

/// The bracketed annotation of a node: a sort shows its order and a read its
/// class, both derived from the node; other operators carry theirs.
std::string NodeDetail(const PlanNode& node) {
  switch (node.op) {
    case PhysOp::kSort:
      return SortOrderToString(node.output_order);
    case PhysOp::kReadMaterialized:
      return "E" + std::to_string(node.eq);
    default:
      return node.detail;
  }
}

}  // namespace

std::string PlanToString(const PlanNodePtr& plan, int indent) {
  std::ostringstream os;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << PhysOpToString(plan->op);
  const std::string detail = NodeDetail(*plan);
  if (!detail.empty()) os << " [" << detail << "]";
  os << "  (E" << plan->eq << ", cost=" << FormatCost(plan->total_cost);
  if (!plan->output_order.empty()) {
    os << ", order=" << SortOrderToString(plan->output_order);
  }
  os << ")\n";
  for (const auto& c : plan->children) os << PlanToString(c, indent + 1);
  return os.str();
}

int CountPlanOps(const PlanNodePtr& plan, PhysOp op) {
  int n = plan->op == op ? 1 : 0;
  for (const auto& c : plan->children) n += CountPlanOps(c, op);
  return n;
}

}  // namespace mqo
