// Tests for the one-call facade, DOT export, plan rendering, the facade's
// observability surface (store stats, EXPLAIN ANALYZE, trace/metrics
// exports), and the knapsack ratio greedy (the Section 3.1 remark at
// unit-test scale).

#include <gtest/gtest.h>

#include "catalog/tpcd.h"
#include "lqdag/dot_export.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "submodular/algorithms.h"
#include "submodular/instances.h"
#include "support/env.h"
#include "support/trace_check.h"
#include "workload/example1.h"

namespace mqo {
namespace {

class FacadeTest : public ::testing::Test {
 protected:
  FacadeTest() : catalog_(MakeTpcdCatalog(1)) {}
  Catalog catalog_;
};

TEST_F(FacadeTest, OptimizesSqlBatchEndToEnd) {
  auto outcome = OptimizeSqlBatch(
      catalog_,
      {"SELECT ps_partkey, sum(ps_supplycost) FROM partsupp, supplier, nation "
       "WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey "
       "AND n_name = 'GERMANY' GROUP BY ps_partkey",
       "SELECT sum(ps_supplycost) FROM partsupp, supplier, nation "
       "WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey "
       "AND n_name = 'GERMANY'"});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const MqoOutcome& o = outcome.ValueOrDie();
  EXPECT_GT(o.dag_classes, 0);
  EXPECT_GT(o.shareable_nodes, 0);
  EXPECT_LT(o.result.total_cost, o.result.volcano_cost);
  EXPECT_FALSE(o.consolidated_plan.empty());
  EXPECT_EQ(o.materialized_plans.size(),
            static_cast<size_t>(o.result.num_materialized));
}

TEST_F(FacadeTest, VolcanoAlgorithmMaterializesNothing) {
  MqoOptions options;
  options.algorithm = MqoOptions::Algorithm::kVolcano;
  auto outcome = OptimizeSqlBatch(catalog_, {"SELECT * FROM nation"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().result.num_materialized, 0);
}

TEST_F(FacadeTest, GreedyAndMarginalAgreeThroughFacade) {
  const std::vector<std::string> batch = {
      "SELECT c_custkey, sum(o_totalprice) FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderdate < DATE '1995-01-01' "
      "GROUP BY c_custkey",
      "SELECT c_custkey, sum(o_totalprice) FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderdate < DATE '1996-01-01' "
      "GROUP BY c_custkey"};
  MqoOptions greedy;
  greedy.algorithm = MqoOptions::Algorithm::kGreedy;
  auto a = OptimizeSqlBatch(catalog_, batch);
  auto b = OptimizeSqlBatch(catalog_, batch, greedy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a.ValueOrDie().result.total_cost, b.ValueOrDie().result.total_cost,
              1e-6 * b.ValueOrDie().result.total_cost);
}

TEST_F(FacadeTest, ParseErrorPropagates) {
  auto outcome = OptimizeSqlBatch(catalog_, {"SELEC oops"});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kParseError);
}

TEST_F(FacadeTest, EmptyBatchRejected) {
  auto outcome = OptimizeSqlBatch(catalog_, {});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FacadeTest, PrintProducesReport) {
  auto outcome = OptimizeSqlBatch(catalog_, {"SELECT * FROM region"});
  ASSERT_TRUE(outcome.ok());
  std::ostringstream os;
  outcome.ValueOrDie().Print(os);
  EXPECT_NE(os.str().find("consolidated cost"), std::string::npos);
  EXPECT_NE(os.str().find("TableScan"), std::string::npos);
}

// A two-query batch with a shared join+filter subexpression, so MQO
// materializes at least one node and the observability surface has real
// segments to report on.
const std::vector<std::string>& SharingBatch() {
  static const std::vector<std::string> batch = {
      "SELECT c_custkey, sum(o_totalprice) FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderdate < DATE '1995-01-01' "
      "GROUP BY c_custkey",
      "SELECT sum(o_totalprice) FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_orderdate < DATE '1995-01-01'"};
  return batch;
}

DataSet SmallData(const Catalog& catalog) {
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 20;
  gen.seed = 7;
  return GenerateData(catalog, gen);
}

TEST_F(FacadeTest, ExecutionSurfacesStoreStatsAndExplain) {
  DataSet data = SmallData(catalog_);
  auto outcome = OptimizeAndExecuteSqlBatch(catalog_, SharingBatch(), data);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const MqoExecutionOutcome& o = outcome.ValueOrDie();
  ASSERT_GT(o.optimization.result.num_materialized, 0);

  // Store accounting reflects the run even with observability off: every
  // materialized node was Put once and each is read by both consumers.
  EXPECT_EQ(o.store_stats.puts, o.optimization.result.num_materialized);
  EXPECT_GT(o.store_stats.gets, 0);

  // One estimate per chosen class, joined 1:1 with runtime telemetry.
  ASSERT_EQ(o.optimization.class_estimates.size(),
            static_cast<size_t>(o.optimization.result.num_materialized));
  ASSERT_EQ(o.explain.size(), o.optimization.class_estimates.size());
  for (const ExplainEntry& e : o.explain) {
    EXPECT_TRUE(e.executed);
    EXPECT_EQ(e.est.eq, e.run.eq);
    EXPECT_EQ(e.est.fingerprint, e.run.fingerprint);
    EXPECT_GT(e.est.est_rows, 0.0);
    EXPECT_GE(e.est.expected_reads, 1.0);
    EXPECT_GT(e.est.predicted_benefit_ms, 0.0);
    EXPECT_GE(e.run.reads, 1);
    EXPECT_FALSE(e.est.label.empty());
  }
  EXPECT_NE(o.explain_analyze.find("EXPLAIN ANALYZE"), std::string::npos);

  // With the observability knobs off the exports stay empty — unless the
  // environment forces them on (the CI obs-trace job exports MQO_TRACE=1
  // MQO_METRICS=1 for the whole suite).
  if (!TestEnv().trace) {
    EXPECT_TRUE(o.trace_json.empty());
  }
  if (!TestEnv().metrics) {
    EXPECT_TRUE(o.metrics_report.empty());
  }
}

TEST_F(FacadeTest, TracingProducesValidChromeTraceAndMetrics) {
  DataSet data = SmallData(catalog_);
  MqoOptions options;
  options.obs.trace = true;
  options.obs.metrics = true;
  options.backend = ExecBackend::kVector;
  auto outcome =
      OptimizeAndExecuteSqlBatch(catalog_, SharingBatch(), data, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const MqoExecutionOutcome& o = outcome.ValueOrDie();

  TraceCheckResult check = ValidateChromeTrace(o.trace_json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.num_spans, 0);
  // The whole run is in one trace: optimizer plan searches, the algorithm
  // span, and the executor's batch span.
  EXPECT_NE(o.trace_json.find("plan_search"), std::string::npos);
  EXPECT_NE(o.trace_json.find("mqo.marginal_greedy"), std::string::npos);
  EXPECT_NE(o.trace_json.find("execute_consolidated"), std::string::npos);
  EXPECT_NE(o.trace_json.find("materialize"), std::string::npos);

  EXPECT_NE(o.metrics_report.find("optimizer.plan_searches"),
            std::string::npos);
  EXPECT_NE(o.metrics_report.find("mat_store.puts"), std::string::npos);
}

TEST_F(FacadeTest, SessionRunsCarryObservabilityAcrossBatches) {
  DataSet data = SmallData(catalog_);
  MqoOptions options;
  options.obs.metrics = true;
  MqoSession session(&catalog_, &data, options);
  auto first = session.Run(SharingBatch());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session.Run(SharingBatch());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Each run gets its own ObsContext and report; the second run's estimates
  // are feedback-corrected, so its explain joins estimates with reality.
  EXPECT_FALSE(first.ValueOrDie().metrics_report.empty());
  EXPECT_FALSE(second.ValueOrDie().metrics_report.empty());
  EXPECT_EQ(second.ValueOrDie().explain.size(),
            static_cast<size_t>(
                second.ValueOrDie().optimization.result.num_materialized));
}

TEST(DotExportTest, ProducesWellFormedDigraph) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  auto shareable = ShareableNodes(memo);
  std::string dot = MemoToDot(memo, {shareable.begin(), shareable.end()});
  EXPECT_EQ(dot.find("digraph"), 0u);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);   // root marked
  EXPECT_NE(dot.find("lightblue"), std::string::npos);       // highlight
  EXPECT_NE(dot.find("shape=box"), std::string::npos);       // OR-nodes
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);   // AND-nodes
  EXPECT_EQ(dot.back(), '\n');
}

TEST(KnapsackGreedyTest, RespectsBudget) {
  Rng rng(9);
  FacilityLocationFunction f = FacilityLocationFunction::Random(10, 25, 3.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  for (double& c : d.costs) c = std::max(c, 1e-9);
  for (double budget : {0.0, 0.5, 1.5, 1e9}) {
    GreedyResult r = KnapsackRatioGreedy(f, d, budget);
    EXPECT_LE(d.CostOf(r.selected), budget + 1e-9);
  }
}

TEST(KnapsackGreedyTest, MatchesMarginalGreedyAtItsOwnBudget) {
  Rng rng(13);
  int matches = 0;
  for (int trial = 0; trial < 5; ++trial) {
    FacilityLocationFunction f =
        FacilityLocationFunction::Random(10, 25, 4.0, &rng);
    Decomposition d = CanonicalDecomposition(f);
    for (double& c : d.costs) c = std::max(c, 1e-9);
    GreedyResult mg = MarginalGreedy(f, d);
    GreedyResult ks = KnapsackRatioGreedy(f, d, d.CostOf(mg.selected));
    if (ks.selected == mg.selected) ++matches;
  }
  EXPECT_GE(matches, 4);  // the Section 3.1 remark, allowing an outlier
}

}  // namespace
}  // namespace mqo
