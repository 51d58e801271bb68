// Tests for the optimizer-scalability levers: parallel candidate evaluation
// and cone-scoped incremental re-costing must be pure work-savers — the
// chosen materialized set, consolidated-plan rendering, costs, and (for the
// lazy variants) even the evaluation counts are bit-identical to the serial
// full-search run at every thread count. Also covers the concurrent cost
// cache's collision handling and the MQO_OPT_THREADS resolution rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "catalog/tpcd.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "mqo/mqo_algorithms.h"
#include "parser/parser.h"
#include "physical/plan.h"
#include "submodular/instances.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

enum class Algo { kMarginalEager, kMarginalLazy, kGreedyLazy };

struct RunSignature {
  std::set<EqId> materialized;
  double total_cost = 0.0;
  std::string plans;  // root plan + every compute plan, rendered
  int64_t optimizations = 0;
  int64_t function_evals = 0;

  bool SameChoice(const RunSignature& o) const {
    return materialized == o.materialized && plans == o.plans &&
           std::abs(total_cost - o.total_cost) <=
               1e-9 * std::max(1.0, std::abs(o.total_cost));
  }
};

RunSignature RunOnce(Memo* memo, Algo algo, bool cone, int threads,
                     bool verify_cone = false) {
  BatchOptimizerOptions opts;
  opts.incremental = cone;
  opts.verify_cone = verify_cone;
  opts.num_threads = threads;
  BatchOptimizer optimizer(memo, CostModel(), opts);
  MaterializationProblem problem(&optimizer);
  RunSignature sig;
  MqoResult result;
  switch (algo) {
    case Algo::kMarginalEager:
    case Algo::kMarginalLazy: {
      MarginalGreedyMqoOptions greedy;
      greedy.lazy = algo == Algo::kMarginalLazy;
      result = RunMarginalGreedy(&problem, greedy);
      break;
    }
    case Algo::kGreedyLazy:
      result = RunGreedy(&problem, /*lazy=*/true);
      break;
  }
  sig.materialized = result.materialized;
  sig.total_cost = result.total_cost;
  sig.optimizations = result.optimizations;
  sig.function_evals = result.function_evals;
  ConsolidatedPlan plan = optimizer.Plan(result.materialized);
  sig.plans = PlanToString(plan.root_plan);
  for (const auto& m : plan.materialized) {
    sig.plans += "\n-- E" + std::to_string(m.eq) + "\n";
    sig.plans += PlanToString(m.compute_plan);
  }
  return sig;
}

class OptParallelTest : public ::testing::TestWithParam<Algo> {};

TEST_P(OptParallelTest, TpcdOutputIdenticalAcrossThreadsAndConeModes) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(3));
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  const RunSignature reference =
      RunOnce(&memo, GetParam(), /*cone=*/false, /*threads=*/1);
  ASSERT_FALSE(reference.materialized.empty());
  for (bool cone : {false, true}) {
    for (int threads : {1, 2, 8}) {
      const RunSignature run = RunOnce(&memo, GetParam(), cone, threads);
      EXPECT_TRUE(run.SameChoice(reference))
          << "cone=" << cone << " threads=" << threads;
    }
  }
}

TEST_P(OptParallelTest, Example1OutputIdenticalAcrossThreadsAndConeModes) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  const RunSignature reference =
      RunOnce(&memo, GetParam(), /*cone=*/false, /*threads=*/1);
  for (bool cone : {false, true}) {
    for (int threads : {1, 2, 8}) {
      const RunSignature run = RunOnce(&memo, GetParam(), cone, threads);
      EXPECT_TRUE(run.SameChoice(reference))
          << "cone=" << cone << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, OptParallelTest,
                         ::testing::Values(Algo::kMarginalEager,
                                           Algo::kMarginalLazy,
                                           Algo::kGreedyLazy));

TEST(OptParallelCountersTest, LazyEvaluationCountsMatchSerialExactly) {
  // The wave-lazy heap runs the same waves at every thread count, so the
  // greedy-level evaluation counts and the optimizer's cache-miss count are
  // equal — not merely close — between serial and parallel runs.
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(3));
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  for (Algo algo : {Algo::kMarginalLazy, Algo::kGreedyLazy}) {
    const RunSignature serial = RunOnce(&memo, algo, /*cone=*/true, 1);
    const RunSignature parallel = RunOnce(&memo, algo, /*cone=*/true, 8);
    EXPECT_EQ(serial.function_evals, parallel.function_evals);
    EXPECT_EQ(serial.optimizations, parallel.optimizations);
  }
}

TEST(OptParallelSubmodularTest, SyntheticGreedyIdenticalAcrossThreads) {
  // The algorithms layer alone (no optimizer oracle): picks, ratios, and
  // evaluation counts merge by candidate index, so a pure set function gives
  // the same result at any thread count.
  Rng rng(23);
  FacilityLocationFunction fl =
      FacilityLocationFunction::Random(40, 120, 4.0, &rng);
  Decomposition d = CanonicalDecomposition(fl, /*num_threads=*/4);
  Decomposition d_serial = CanonicalDecomposition(fl);
  ASSERT_EQ(d.costs, d_serial.costs);
  for (bool lazy : {false, true}) {
    MarginalGreedyOptions serial_opts;
    serial_opts.lazy = lazy;
    MarginalGreedyOptions parallel_opts = serial_opts;
    parallel_opts.num_threads = 4;
    GreedyResult serial = MarginalGreedy(fl, d, serial_opts);
    GreedyResult parallel = MarginalGreedy(fl, d, parallel_opts);
    EXPECT_TRUE(serial.selected == parallel.selected) << "lazy=" << lazy;
    EXPECT_EQ(serial.pick_order, parallel.pick_order);
    EXPECT_EQ(serial.function_evals, parallel.function_evals);
    EXPECT_DOUBLE_EQ(serial.value, parallel.value);
  }
}

TEST(OptParallelFacadeTest, OneThreadKnobGovernsOptimizerDeterministically) {
  // exec.num_threads flows into BatchOptimizerOptions::num_threads; the
  // optimizer-side outputs (plans, chosen set, estimates) stay identical.
  Catalog catalog = MakeTpcdCatalog(1);
  const std::vector<std::string> batch = {
      "SELECT c_custkey, sum(o_totalprice) FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderdate < DATE '1995-01-01' "
      "GROUP BY c_custkey",
      "SELECT sum(o_totalprice) FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderdate < DATE '1995-01-01'"};
  for (StatsMode mode : {StatsMode::kCatalogGuess, StatsMode::kCollected}) {
    DataGenOptions gen;
    gen.max_rows_per_table = 40;
    gen.domain_cap = 20;
    gen.seed = 7;
    DataSet data = GenerateData(catalog, gen);
    MqoOptions serial_options;
    serial_options.stats_mode = mode;
    MqoOptions parallel_options = serial_options;
    parallel_options.exec.num_threads = 8;
    auto serial = OptimizeAndExecuteSqlBatch(catalog, batch, data,
                                             serial_options);
    auto parallel = OptimizeAndExecuteSqlBatch(catalog, batch, data,
                                               parallel_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    const MqoOutcome& s = serial.ValueOrDie().optimization;
    const MqoOutcome& p = parallel.ValueOrDie().optimization;
    EXPECT_EQ(s.result.materialized, p.result.materialized);
    EXPECT_DOUBLE_EQ(s.result.total_cost, p.result.total_cost);
    EXPECT_EQ(s.consolidated_plan, p.consolidated_plan);
    EXPECT_EQ(s.materialized_plans, p.materialized_plans);
    ASSERT_EQ(s.class_estimates.size(), p.class_estimates.size());
    for (size_t i = 0; i < s.class_estimates.size(); ++i) {
      EXPECT_EQ(s.class_estimates[i].eq, p.class_estimates[i].eq);
      EXPECT_DOUBLE_EQ(s.class_estimates[i].est_rows,
                       p.class_estimates[i].est_rows);
      EXPECT_DOUBLE_EQ(s.class_estimates[i].predicted_benefit_ms,
                       p.class_estimates[i].predicted_benefit_ms);
    }
    // The executed result shape is thread-count independent too.
    ASSERT_EQ(serial.ValueOrDie().results.size(),
              parallel.ValueOrDie().results.size());
    for (size_t i = 0; i < serial.ValueOrDie().results.size(); ++i) {
      EXPECT_EQ(serial.ValueOrDie().results[i].rows.size(),
                parallel.ValueOrDie().results[i].rows.size());
    }
  }
}

TEST(CostCacheTest, HashCollisionsAreVerifiedNotTrusted) {
  // The 64-bit hash is only a bucket index: two different sets forced into
  // the same bucket must each get their own stored cost back, and a set that
  // merely collides must miss.
  CostCache cache;
  cache.Put(42, {1}, {10.0, 5.0});
  cache.Put(42, {2}, {20.0, 7.0});  // forced collision with {1}
  std::pair<double, double> out;
  ASSERT_TRUE(cache.Get(42, {1}, &out));
  EXPECT_DOUBLE_EQ(out.first, 10.0);
  EXPECT_DOUBLE_EQ(out.second, 5.0);
  ASSERT_TRUE(cache.Get(42, {2}, &out));
  EXPECT_DOUBLE_EQ(out.first, 20.0);
  EXPECT_DOUBLE_EQ(out.second, 7.0);
  EXPECT_FALSE(cache.Get(42, {3}, &out));  // collides, verifies, misses
  EXPECT_FALSE(cache.Get(7, {1}, &out));   // right set, wrong bucket
  // Concurrent evaluators may race to store the same set: first writer wins.
  cache.Put(42, {1}, {99.0, 99.0});
  ASSERT_TRUE(cache.Get(42, {1}, &out));
  EXPECT_DOUBLE_EQ(out.first, 10.0);
}

TEST(ConeVerifyTest, ConeScopedCostsMatchFreshSearches) {
  // verify_cone re-runs every cone-scoped evaluation as a fresh full search
  // and aborts on any bc/buc mismatch — surviving the sweep is the point.
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizerOptions opts;
  opts.verify_cone = true;
  BatchOptimizer optimizer(&memo, CostModel(), opts);
  optimizer.SetIncrementalBase({});
  const auto shareable = ShareableNodes(memo);
  ASSERT_FALSE(shareable.empty());
  for (EqId e : shareable) {
    EXPECT_GT(optimizer.BestCost({e}), 0.0);
  }
  // Removal deltas from a pinned full base (the canonical-decomposition
  // access pattern) verify too.
  std::set<EqId> full(shareable.begin(), shareable.end());
  optimizer.SetIncrementalBase(full);
  for (EqId e : shareable) {
    std::set<EqId> without = full;
    without.erase(e);
    EXPECT_GT(optimizer.BestCost(without), 0.0);
  }
}

/// Template t of a dashboard burst over the date window [day, day + width):
/// two templates share a windowed orders ⋈ lineitem core, two a windowed
/// lineitem scan.
std::string DashboardSql(int t, int day, int width) {
  const std::string lo = std::to_string(day);
  const std::string hi = std::to_string(day + width);
  switch (t) {
    case 0:
      return "SELECT o_custkey, sum(l_extendedprice) FROM orders, lineitem "
             "WHERE o_orderkey = l_orderkey AND o_orderdate >= " + lo +
             " AND o_orderdate < " + hi + " GROUP BY o_custkey";
    case 1:
      return "SELECT l_orderkey, sum(l_extendedprice) "
             "FROM orders, lineitem, customer "
             "WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey "
             "AND o_orderdate >= " + lo + " AND o_orderdate < " + hi +
             " GROUP BY l_orderkey";
    case 2:
      return "SELECT sum(l_extendedprice) FROM lineitem "
             "WHERE l_shipdate >= " + lo + " AND l_shipdate < " + hi +
             " AND l_quantity < 24";
    default:
      return "SELECT s_nationkey, sum(l_extendedprice) FROM lineitem, supplier "
             "WHERE l_suppkey = s_suppkey AND l_shipdate >= " + lo +
             " AND l_shipdate < " + hi + " GROUP BY s_nationkey";
  }
}

TEST(ConeVerifyTest, WholeGreedyRunsOnDashboardBatchMatchFullSearch) {
  // Whole greedy runs chain in-place base toggles across picks, evaluate
  // removal deltas (the canonical decomposition pins the full universe),
  // and re-cost a batch root with 48 children in every cone. verify_cone
  // aborts on any overlay that disagrees with a fresh full search; the run
  // must also reproduce the non-incremental run's choice bit for bit.
  Catalog catalog = MakeTpcdCatalog(1);
  std::vector<LogicalExprPtr> queries;
  constexpr int kQueries = 48;
  constexpr int kWindows = 6;
  for (int i = 0; i < kQueries; ++i) {
    const int t = i % 4;
    const int day = 100 + 211 * ((i / 4) % kWindows);
    auto parsed = ParseQuery(DashboardSql(t, day, t < 2 ? 90 : 365), catalog);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    queries.push_back(parsed.ValueOrDie());
  }
  Memo memo(&catalog);
  memo.InsertBatch(queries);
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  for (Algo algo :
       {Algo::kMarginalLazy, Algo::kMarginalEager, Algo::kGreedyLazy}) {
    const RunSignature reference = RunOnce(&memo, algo, /*cone=*/false, 1);
    ASSERT_FALSE(reference.materialized.empty());
    for (int threads : {1, 2}) {
      const RunSignature run =
          RunOnce(&memo, algo, /*cone=*/true, threads, /*verify_cone=*/true);
      EXPECT_EQ(run.materialized, reference.materialized)
          << "algo=" << static_cast<int>(algo) << " threads=" << threads;
      EXPECT_EQ(run.total_cost, reference.total_cost)
          << "algo=" << static_cast<int>(algo) << " threads=" << threads;
      EXPECT_EQ(run.plans, reference.plans)
          << "algo=" << static_cast<int>(algo) << " threads=" << threads;
    }
  }
}

TEST(OptimizerThreadsTest, ExplicitWinsEnvFillsUnset) {
  // Explicit setting wins; the 0 sentinel resolves via MQO_OPT_THREADS;
  // malformed or absent env means serial.
  unsetenv("MQO_OPT_THREADS");
  EXPECT_EQ(ResolveOptimizerThreads(0), 1);
  EXPECT_EQ(ResolveOptimizerThreads(4), 4);
  setenv("MQO_OPT_THREADS", "3", 1);
  EXPECT_EQ(ResolveOptimizerThreads(0), 3);
  EXPECT_EQ(ResolveOptimizerThreads(2), 2);  // explicit still wins
  setenv("MQO_OPT_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveOptimizerThreads(0), 1);
  setenv("MQO_OPT_THREADS", "2", 1);
  {
    // The optimizer resolves at construction: options() reports > 0.
    Catalog catalog = MakeExample1Catalog();
    Memo memo(&catalog);
    memo.InsertBatch(MakeExample1Queries());
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    BatchOptimizer optimizer(&memo, CostModel());
    EXPECT_EQ(optimizer.options().num_threads, 2);
  }
  unsetenv("MQO_OPT_THREADS");
}

}  // namespace
}  // namespace mqo
