// Tests for incremental re-optimization (Roy et al.'s second optimization,
// Section 5.1 of the paper): delta-reuse of the plan search must be exactly
// equivalent to fresh searches — same costs, same chosen plans — while doing
// strictly less costing work.

#include <gtest/gtest.h>

#include <memory>

#include "catalog/tpcd.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "support/env.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

class IncrementalTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUpWorkload(int bq) {
    catalog_ = MakeTpcdCatalog(1);
    memo_ = std::make_unique<Memo>(&catalog_);
    memo_->InsertBatch(MakeBatchedWorkload(bq));
    ASSERT_TRUE(ExpandMemo(memo_.get()).ok());
  }

  Catalog catalog_;
  std::unique_ptr<Memo> memo_;
};

TEST_P(IncrementalTest, BestCostMatchesFreshSearchOnEverySingleton) {
  SetUpWorkload(GetParam());
  BatchOptimizerOptions fresh_opts = EnvOptimizerOptions();
  fresh_opts.incremental = false;
  BatchOptimizer fresh(memo_.get(), CostModel(), fresh_opts);
  BatchOptimizer incremental(memo_.get(), CostModel(),
                             EnvOptimizerOptions());
  incremental.SetIncrementalBase({});
  for (EqId e : ShareableNodes(*memo_)) {
    EXPECT_NEAR(fresh.BestCost({e}), incremental.BestCost({e}), 1e-6)
        << "node E" << e;
  }
  EXPECT_GT(incremental.num_incremental(), 0);
  EXPECT_LT(incremental.num_costings(), fresh.num_costings());
}

TEST_P(IncrementalTest, GreedyRunsIdenticalWithAndWithoutIncremental) {
  SetUpWorkload(GetParam());
  MqoResult results[2];
  int64_t costings[2];
  for (int inc = 0; inc < 2; ++inc) {
    BatchOptimizerOptions opts = EnvOptimizerOptions();
    opts.incremental = inc == 1;
    BatchOptimizer optimizer(memo_.get(), CostModel(), opts);
    MaterializationProblem problem(&optimizer);
    results[inc] = RunGreedy(&problem);
    costings[inc] = optimizer.num_costings();
  }
  EXPECT_EQ(results[0].materialized, results[1].materialized);
  EXPECT_NEAR(results[0].total_cost, results[1].total_cost, 1e-6);
  EXPECT_LT(costings[1], costings[0]);
}

TEST_P(IncrementalTest, MarginalGreedyRunsIdenticalWithAndWithoutIncremental) {
  SetUpWorkload(GetParam());
  MqoResult results[2];
  for (int inc = 0; inc < 2; ++inc) {
    BatchOptimizerOptions opts = EnvOptimizerOptions();
    opts.incremental = inc == 1;
    BatchOptimizer optimizer(memo_.get(), CostModel(), opts);
    MaterializationProblem problem(&optimizer);
    results[inc] = RunMarginalGreedy(&problem);
  }
  EXPECT_EQ(results[0].materialized, results[1].materialized);
  EXPECT_NEAR(results[0].total_cost, results[1].total_cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Batches, IncrementalTest, ::testing::Values(1, 2, 3, 4));

TEST(IncrementalExample1Test, RemovalDeltaAlsoMatches) {
  // bc(U \ {e}) computed by toggling off from a pinned full-universe base
  // (the canonical-decomposition access pattern).
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  auto shareable = ShareableNodes(memo);
  std::set<EqId> full(shareable.begin(), shareable.end());

  BatchOptimizerOptions fresh_opts = EnvOptimizerOptions();
  fresh_opts.incremental = false;
  BatchOptimizer fresh(&memo, CostModel(), fresh_opts);
  BatchOptimizer incremental(&memo, CostModel(), EnvOptimizerOptions());
  incremental.SetIncrementalBase(full);
  for (EqId e : shareable) {
    std::set<EqId> without = full;
    without.erase(e);
    EXPECT_NEAR(fresh.BestCost(without), incremental.BestCost(without), 1e-6);
  }
}

TEST(IncrementalExample1Test, ToggleIsInverseOfItself) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  auto shareable = ShareableNodes(memo);
  ASSERT_FALSE(shareable.empty());
  BatchOptimizer optimizer(&memo, CostModel(), EnvOptimizerOptions());
  StatsEstimator stats(&memo);
  auto index = std::make_shared<SearchIndex>(memo, &stats);
  index->BuildCones(memo);
  PlanSearch search(&memo, &stats, CostModel(), {}, SearchOptions{}, index);
  const double before = search.UsePlan(memo.root(), {})->total_cost;
  search.ToggleMaterialized(shareable[0], true);
  search.ToggleMaterialized(shareable[0], false);
  const double after = search.UsePlan(memo.root(), {})->total_cost;
  EXPECT_DOUBLE_EQ(before, after);
}

}  // namespace
}  // namespace mqo
