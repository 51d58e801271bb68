// Tests for the physical plan search and batch optimizer: operator choice,
// sort-order handling (native orders, enforcers, order-preserving
// materialization), bc/buc bookkeeping, and the supermodularity diagnostics
// behind the paper's monotonicity heuristic.

#include <gtest/gtest.h>

#include "catalog/tpcd.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "optimizer/batch_optimizer.h"
#include "parser/parser.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(MakeTpcdCatalog(1)) {}

  /// Builds a fresh memo + optimizer for the given SQL batch.
  void Setup(const std::vector<std::string>& sqls) {
    memo_ = std::make_unique<Memo>(&catalog_);
    std::vector<LogicalExprPtr> roots;
    for (const auto& sql : sqls) {
      auto parsed = ParseQuery(sql, catalog_);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      roots.push_back(parsed.ValueOrDie());
    }
    memo_->InsertBatch(roots);
    auto expanded = ExpandMemo(memo_.get());
    ASSERT_TRUE(expanded.ok());
    optimizer_ = std::make_unique<BatchOptimizer>(memo_.get(), CostModel());
  }

  Catalog catalog_;
  std::unique_ptr<Memo> memo_;
  std::unique_ptr<BatchOptimizer> optimizer_;
};

TEST_F(OptimizerTest, ScanUsesClusteredOrder) {
  Setup({"SELECT * FROM nation"});
  ConsolidatedPlan plan = optimizer_->Plan({});
  const PlanNodePtr& q = plan.root_plan->children[0];
  EXPECT_EQ(q->op, PhysOp::kTableScan);
  ASSERT_FALSE(q->output_order.empty());
  EXPECT_EQ(q->output_order[0], ColumnRef("nation", "n_nationkey"));
}

TEST_F(OptimizerTest, SargablePredicateUsesIndexScan) {
  Setup({"SELECT * FROM orders WHERE o_orderkey < 1000"});
  ConsolidatedPlan plan = optimizer_->Plan({});
  EXPECT_EQ(CountPlanOps(plan.root_plan, PhysOp::kIndexScan), 1);
  EXPECT_EQ(CountPlanOps(plan.root_plan, PhysOp::kTableScan), 0);
}

TEST_F(OptimizerTest, NonSargablePredicateUsesFilter) {
  Setup({"SELECT * FROM orders WHERE o_totalprice < 1000"});
  ConsolidatedPlan plan = optimizer_->Plan({});
  EXPECT_EQ(CountPlanOps(plan.root_plan, PhysOp::kFilter), 1);
  EXPECT_EQ(CountPlanOps(plan.root_plan, PhysOp::kIndexScan), 0);
}

TEST_F(OptimizerTest, PkFkMergeJoinNeedsNoSortOnPkSide) {
  // orders is clustered on o_orderkey; lineitem on (l_orderkey, l_linenumber):
  // the join of the two can merge with no sort at all.
  Setup({"SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey"});
  ConsolidatedPlan plan = optimizer_->Plan({});
  EXPECT_GE(CountPlanOps(plan.root_plan, PhysOp::kMergeJoin), 1);
  EXPECT_EQ(CountPlanOps(plan.root_plan, PhysOp::kSort), 0);
}

TEST_F(OptimizerTest, NonKeyJoinRequiresSortOrBnl) {
  Setup({"SELECT * FROM customer, orders WHERE c_custkey = o_custkey"});
  ConsolidatedPlan plan = optimizer_->Plan({});
  // c_custkey is clustered for customer but o_custkey is not for orders: a
  // merge join must sort orders (or the optimizer picks BNL).
  const int sorts = CountPlanOps(plan.root_plan, PhysOp::kSort);
  const int bnl = CountPlanOps(plan.root_plan, PhysOp::kBlockNLJoin);
  EXPECT_GE(sorts + bnl, 1);
}

TEST_F(OptimizerTest, AggregationSortsByGroupColumns) {
  Setup({"SELECT o_custkey, sum(o_totalprice) FROM orders GROUP BY o_custkey"});
  ConsolidatedPlan plan = optimizer_->Plan({});
  EXPECT_EQ(CountPlanOps(plan.root_plan, PhysOp::kSortAggregate), 1);
  EXPECT_GE(CountPlanOps(plan.root_plan, PhysOp::kSort), 1);
}

TEST_F(OptimizerTest, BestCostEqualsUseCostPlusMatCost) {
  Setup({"SELECT * FROM customer, orders WHERE c_custkey = o_custkey "
         "AND o_totalprice < 10000",
         "SELECT * FROM customer, orders WHERE c_custkey = o_custkey "
         "AND o_totalprice < 20000"});
  auto shareable = ShareableNodes(*memo_);
  ASSERT_FALSE(shareable.empty());
  std::set<EqId> mat = {shareable[0]};
  ConsolidatedPlan plan = optimizer_->Plan(mat);
  EXPECT_NEAR(plan.best_cost, plan.best_use_cost + plan.mat_cost, 1e-9);
  EXPECT_NEAR(optimizer_->BestCost(mat), plan.best_cost, 1e-6);
  EXPECT_NEAR(optimizer_->BestUseCost(mat), plan.best_use_cost, 1e-6);
}

TEST_F(OptimizerTest, EmptySetCostsCoincide) {
  Setup({"SELECT * FROM nation, region WHERE n_regionkey = r_regionkey"});
  EXPECT_DOUBLE_EQ(optimizer_->BestCost({}), optimizer_->BestUseCost({}));
}

TEST_F(OptimizerTest, MaterializingNeverReducesUseCostBelowZeroBenefit) {
  // buc is monotonically non-increasing in the materialized set: with more
  // nodes available the best-use plan can only get cheaper or stay.
  Setup({"SELECT * FROM customer, orders, lineitem WHERE "
         "c_custkey = o_custkey AND o_orderkey = l_orderkey"});
  auto shareable = ShareableNodes(*memo_);
  std::set<EqId> mat;
  double prev = optimizer_->BestUseCost(mat);
  for (EqId e : shareable) {
    mat.insert(e);
    const double cur = optimizer_->BestUseCost(mat);
    EXPECT_LE(cur, prev + 1e-6);
    prev = cur;
  }
}

TEST_F(OptimizerTest, CacheAvoidsReoptimization) {
  Setup({"SELECT * FROM nation, region WHERE n_regionkey = r_regionkey"});
  (void)optimizer_->BestCost({});
  const int64_t after_first = optimizer_->num_optimizations();
  (void)optimizer_->BestCost({});
  EXPECT_EQ(optimizer_->num_optimizations(), after_first);
}

TEST_F(OptimizerTest, StandaloneMatCostExceedsWriteCost) {
  Setup({"SELECT * FROM customer, orders WHERE c_custkey = o_custkey"});
  auto shareable = ShareableNodes(*memo_);
  for (EqId e : shareable) {
    EXPECT_GT(optimizer_->StandaloneMatCost(e), 0.0);
  }
}

TEST(OptimizerExample1Test, MaterializedReadPreservesComputeOrder) {
  // The materialized (B ⋈ C) is stored in its compute plan's order, so the
  // reading side avoids a re-sort (merge-joinable directly when useful).
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel());
  auto shareable = ShareableNodes(memo);
  ASSERT_FALSE(shareable.empty());
  ConsolidatedPlan plan = optimizer.Plan({shareable[0]});
  // Find a ReadMaterialized node and check it carries a sort order.
  std::function<void(const PlanNodePtr&, int*)> count_ordered =
      [&](const PlanNodePtr& n, int* found) {
        if (n->op == PhysOp::kReadMaterialized && !n->output_order.empty()) {
          ++*found;
        }
        for (const auto& c : n->children) count_ordered(c, found);
      };
  int found = 0;
  count_ordered(plan.root_plan, &found);
  EXPECT_GE(found, 1);
}

TEST(OptimizerExample1Test, SupermodularityHeuristicDiagnostic) {
  // The paper assumes bestCost is supermodular (the monotonicity heuristic)
  // and reports it approximately holds. Check the pairwise condition
  // benefit(x, {y}) <= benefit(x, {}) on Example 1's shareable nodes and
  // report violations — none are expected on this small DAG.
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel());
  auto shareable = ShareableNodes(memo);
  int violations = 0;
  for (EqId x : shareable) {
    const double benefit_alone =
        optimizer.BestCost({}) - optimizer.BestCost({x});
    for (EqId y : shareable) {
      if (x == y) continue;
      const double benefit_with_y =
          optimizer.BestCost({y}) - optimizer.BestCost({x, y});
      if (benefit_with_y > benefit_alone + 1e-6) ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

/// MarginalGreedy's consolidated plan and every compute plan, rendered.
std::string RenderMarginalGreedyPlans(Memo* memo) {
  BatchOptimizer optimizer(memo, CostModel());
  MaterializationProblem problem(&optimizer);
  const MqoResult result = RunMarginalGreedy(&problem);
  const ConsolidatedPlan plan = optimizer.Plan(result.materialized);
  std::string out = PlanToString(plan.root_plan);
  for (const auto& m : plan.materialized) {
    out += "-- E" + std::to_string(m.eq) + "\n" + PlanToString(m.compute_plan);
  }
  return out;
}

// Golden plan text: EXPLAIN output and the plan strings callers compare must
// not change when the search changes how it builds node annotations.
TEST(PlanTextGoldenTest, Example1MarginalGreedyPlans) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  EXPECT_EQ(RenderMarginalGreedyPlans(&memo),
      "BatchRoot  (E8, cost=93899.0)\n"
      "  BlockNLJoin [A.k = B.k]  (E4, cost=46949.5)\n"
      "    ReadMaterialized [E5]  (E5, cost=2244.4, order=B.k)\n"
      "  BlockNLJoin [C.k = D.k]  (E7, cost=46949.5)\n"
      "    ReadMaterialized [E5]  (E5, cost=2244.4, order=B.k)\n"
      "-- E5\n"
      "MergeJoin [B.k = C.k]  (E5, cost=357763.1, order=B.k)\n"
      "  Sort [B.k]  (E1, cost=174717.5, order=B.k)\n"
      "    TableScan [B]  (E1, cost=44697.5)\n"
      "  Sort [C.k]  (E3, cost=174717.5, order=C.k)\n"
      "    TableScan [C]  (E3, cost=44697.5)\n");
}

TEST(PlanTextGoldenTest, TpcdQ3MarginalGreedyPlans) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(1));  // Q3 in both variants
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  EXPECT_EQ(RenderMarginalGreedyPlans(&memo),
      "BatchRoot  (E14, cost=2029364.3)\n"
      "  SortAggregate [lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority]  (E8, cost=1009211.2, order=lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority)\n"
      "    Sort [lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority]  (E7, cost=1002056.6, order=lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority)\n"
      "      MergeJoin [lineitem.l_orderkey = orders.o_orderkey]  (E7, cost=773089.3, order=orders.o_orderkey)\n"
      "        Sort [orders.o_orderkey]  (E4, cost=245454.1, order=orders.o_orderkey)\n"
      "          BlockNLJoin [customer.c_custkey = orders.o_custkey]  (E4, cost=170184.9)\n"
      "            Filter [orders.o_orderdate < 1169]  (E3, cost=114267.8, order=orders.o_orderkey)\n"
      "              TableScan [orders]  (E2, cost=104746.3, order=orders.o_orderkey)\n"
      "        Filter [lineitem.l_shipdate > 1169]  (E6, cost=495713.1, order=lineitem.l_orderkey, lineitem.l_linenumber)\n"
      "          TableScan [lineitem]  (E5, cost=454404.5, order=lineitem.l_orderkey, lineitem.l_linenumber)\n"
      "  SortAggregate [lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority]  (E13, cost=1020153.0, order=lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority)\n"
      "    Sort [lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority]  (E12, cost=1012946.0, order=lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority)\n"
      "      MergeJoin [lineitem.l_orderkey = orders.o_orderkey]  (E12, cost=782301.6, order=orders.o_orderkey)\n"
      "        Sort [orders.o_orderkey]  (E10, cost=256128.0, order=orders.o_orderkey)\n"
      "          BlockNLJoin [customer.c_custkey = orders.o_custkey]  (E10, cost=173971.2)\n"
      "            Filter [orders.o_orderdate < 1276]  (E9, cost=114267.8, order=orders.o_orderkey)\n"
      "              TableScan [orders]  (E2, cost=104746.3, order=orders.o_orderkey)\n"
      "        Filter [lineitem.l_shipdate > 1276]  (E11, cost=495713.1, order=lineitem.l_orderkey, lineitem.l_linenumber)\n"
      "          TableScan [lineitem]  (E5, cost=454404.5, order=lineitem.l_orderkey, lineitem.l_linenumber)\n"
      "-- E1\n"
      "Filter [customer.c_mktsegment = 'BUILDING']  (E1, cost=19433.8, order=customer.c_custkey)\n"
      "  TableScan [customer]  (E0, cost=17815.2, order=customer.c_custkey)\n");
}

TEST_F(OptimizerTest, GoldenIndexScanPlanText) {
  Setup({"SELECT o_orderkey, o_totalprice FROM orders "
         "WHERE o_orderkey < 1000 AND o_totalprice > 5"});
  EXPECT_EQ(PlanToString(optimizer_->Plan({}).root_plan),
      "BatchRoot  (E3, cost=104.4)\n"
      "  Project  (E2, cost=104.4, order=orders.o_orderkey)\n"
      "    IndexScan [orders: orders.o_orderkey < 1000 AND orders.o_totalprice > 5]  (E1, cost=103.8, order=orders.o_orderkey)\n");
}

}  // namespace
}  // namespace mqo
