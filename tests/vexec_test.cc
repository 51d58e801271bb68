// Differential verification of the vectorized columnar engine against the
// row engine: for the tiny catalog, the TPC-D workload, and example1, the
// two independent implementations must produce bag-equal (canonicalized)
// results for standalone plans and for consolidated MQO plans under every
// selection algorithm — materialization and engine choice are performance
// decisions and must never change answers. Plus unit tests of the columnar
// format and kernels against their row_ops counterparts.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>

#include "catalog/tpcd.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "obs/obs.h"
#include "parser/parser.h"
#include "support/env.h"
#include "support/pipelines.h"
#include "support/trace_check.h"
#include "vexec/backend.h"
#include "vexec/column_need.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

using Algorithm = MqoOptions::Algorithm;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kMarginalGreedy, Algorithm::kGreedy, Algorithm::kVolcano};

MqoResult RunAlgorithm(Algorithm alg, MaterializationProblem* problem) {
  switch (alg) {
    case Algorithm::kMarginalGreedy:
      return RunMarginalGreedy(problem);
    case Algorithm::kGreedy:
      return RunGreedy(problem);
    case Algorithm::kVolcano:
      return RunVolcano(problem);
  }
  return {};
}

/// Query-root classes of the batch (children of the Batch operator).
std::vector<EqId> QueryRoots(const Memo& memo) {
  std::vector<EqId> roots;
  for (OpId oid : memo.ClassOps(memo.root())) {
    const MemoOp& op = memo.op(oid);
    if (op.kind != LogicalOp::kBatch) continue;
    for (EqId c : op.children) roots.push_back(memo.Find(c));
    break;
  }
  return roots;
}

void ExpectSameRows(const NamedRows& expected, const NamedRows& actual,
                    const std::string& context) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size()) << context;
  ASSERT_EQ(expected.rows.size(), actual.rows.size()) << context;
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    for (size_t c = 0; c < expected.columns.size(); ++c) {
      ASSERT_TRUE(ValueEq(expected.rows[r][c], actual.rows[r][c]))
          << context << ": row " << r << " col "
          << expected.columns[c].ToString();
    }
  }
}

/// Vector-engine configurations the differential suite must match the row
/// engine under: serial, and morsel-parallel pipelines at 2 and 8 threads.
/// The morsel sizes are tiny so the small test tables split into several
/// morsels and the parallel build/probe/aggregate merge paths are genuinely
/// exercised (8 threads over 4-row morsels oversubscribes scheduling to
/// shake out ordering assumptions). Each store takes the MQO_MAT_BUDGET_BYTES
/// / MQO_SPILL_DIR overrides, like every executor this suite builds (bar the
/// deliberately unlimited one in VexecBudgetTest): the CI budget-spill leg
/// forces them all through eviction and spill.
std::vector<ExecOptions> VectorConfigs() {
  ExecOptions serial;
  ExecOptions two;
  two.num_threads = 2;
  two.morsel_rows = 8;
  ExecOptions eight;
  eight.num_threads = 8;
  eight.morsel_rows = 4;
  return {WithEnvStore(serial), WithEnvStore(two), WithEnvStore(eight)};
}

/// The differential check for one workload: row and vectorized execution
/// (at every thread count) must agree on every standalone per-query plan and
/// on the consolidated plan chosen by every MQO algorithm (plus the
/// no-sharing plan). The optimizer honours MQO_STATS_MODE: the CI
/// stats-collected leg re-runs the whole suite on data-driven statistics
/// (different plans, identical answers — statistics are a performance
/// decision, never a semantic one).
void CheckBackendsAgreeOn(
    Memo* memo, const DataSet& data,
    const std::vector<ExecOptions>& configs = VectorConfigs()) {
  TableStatsRegistry registry(&data);
  BatchOptimizerOptions optimizer_options;
  if (TestEnv().stats_mode == StatsMode::kCollected) {
    optimizer_options.stats.mode = StatsMode::kCollected;
    optimizer_options.stats.table_stats = &registry;
  }
  BatchOptimizer optimizer(memo, CostModel(), optimizer_options);
  MaterializationProblem problem(&optimizer);
  const std::vector<EqId> roots = QueryRoots(*memo);
  ASSERT_FALSE(roots.empty());

  // Standalone plans: each query's locally optimal plan, both engines.
  {
    ConsolidatedPlan volcano = optimizer.Plan({});
    for (size_t q = 0; q < volcano.root_plan->children.size(); ++q) {
      const PlanNodePtr& plan = volcano.root_plan->children[q];
      auto row = ExecutePlanWith(ExecBackend::kRow, memo, &data, plan,
                                 WithEnvStore());
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      for (const ExecOptions& exec : configs) {
        auto vec =
            ExecutePlanWith(ExecBackend::kVector, memo, &data, plan, exec);
        ASSERT_TRUE(vec.ok()) << vec.status().ToString();
        ExpectSameRows(row.ValueOrDie(), vec.ValueOrDie(),
                       "standalone q" + std::to_string(q) + " t" +
                           std::to_string(exec.num_threads));
      }
    }
  }

  // Consolidated plans under every selection algorithm. Each vector config
  // runs twice: with an unlimited store budget, and with a budget so tiny
  // that every materialized segment is evicted to disk and reloaded —
  // spilling is a performance decision and must never change answers. The
  // row engine gets the same budgeted treatment once per algorithm.
  for (Algorithm alg : kAllAlgorithms) {
    MqoResult result = RunAlgorithm(alg, &problem);
    ConsolidatedPlan plan = optimizer.Plan(result.materialized);
    auto row = ExecuteConsolidatedWith(ExecBackend::kRow, memo, &data, plan,
                                       WithEnvStore());
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    const auto& row_results = row.ValueOrDie();
    ASSERT_EQ(row_results.size(), roots.size());
    {
      ExecOptions budgeted;
      budgeted.mat_budget_bytes = 1;  // forces eviction + spill of everything
      auto row_spill = ExecuteConsolidatedWith(ExecBackend::kRow, memo, &data,
                                               plan, WithEnvStore(budgeted));
      ASSERT_TRUE(row_spill.ok()) << row_spill.status().ToString();
      for (size_t q = 0; q < roots.size(); ++q) {
        ExpectSameRows(row_results[q], row_spill.ValueOrDie()[q],
                       result.algorithm + " q" + std::to_string(q) +
                           " row budgeted");
      }
    }
    for (ExecOptions exec : configs) {
      for (size_t budget : {size_t{0}, size_t{1}}) {
        exec.mat_budget_bytes = budget;
        auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, memo, &data,
                                           plan, WithEnvStore(exec));
        ASSERT_TRUE(vec.ok()) << vec.status().ToString();
        const auto& vec_results = vec.ValueOrDie();
        ASSERT_EQ(vec_results.size(), roots.size());
        for (size_t q = 0; q < roots.size(); ++q) {
          ExpectSameRows(row_results[q], vec_results[q],
                         result.algorithm + " q" + std::to_string(q) + " t" +
                             std::to_string(exec.num_threads) + " budget " +
                             std::to_string(budget));
        }
      }
    }
  }
}

void CheckBackendsAgree(Memo* memo, const DataGenOptions& gen) {
  CheckBackendsAgreeOn(memo, GenerateData(*memo->catalog(), gen));
}

/// A tiny catalog with overlapping key domains, a fractional double column,
/// and string tags, so the typed columns all get exercised.
Catalog MakeTinyCatalog() {
  Catalog cat;
  for (const char* name : {"t1", "t2", "t3"}) {
    Table t(name, 40);
    t.AddColumn(ColumnDef{"k", ColumnType::kInt, 4, 12, 0, 12});
    t.AddColumn(ColumnDef{"v", ColumnType::kDouble, 8, 8, 0, 8});
    t.AddColumn(ColumnDef{"tag", ColumnType::kString, 8, 4, 0, 4});
    (void)cat.AddTable(std::move(t));
  }
  return cat;
}

JoinCondition KeyJoin(const char* la, const char* ra) {
  JoinCondition c;
  c.left = ColumnRef(la, "k");
  c.right = ColumnRef(ra, "k");
  return c;
}

Comparison Cmp(const char* q, const char* n, CompareOp op, Literal lit) {
  Comparison c;
  c.column = ColumnRef(q, n);
  c.op = op;
  c.literal = std::move(lit);
  return c;
}

AggExpr Agg(AggFunc f, ColumnRef arg = {}) {
  AggExpr a;
  a.func = f;
  a.arg = std::move(arg);
  return a;
}

/// Three queries over the tiny catalog sharing the t1 ⋈ t2 subexpression:
/// a grouped aggregate with string MIN/MAX and COUNT(*), a projection, and a
/// scalar AVG behind a string-equality filter.
std::vector<LogicalExprPtr> MakeTinyQueries() {
  auto join = LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t2"),
                                JoinPredicate({KeyJoin("t1", "t2")}));
  auto q1 = LogicalExpr::Aggregate(
      LogicalExpr::Select(join,
                          Predicate({Cmp("t1", "v", CompareOp::kLe, 6)})),
      {ColumnRef("t1", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("t2", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("t2", "tag")),
       Agg(AggFunc::kMax, ColumnRef("t2", "k"))});
  auto q2 = LogicalExpr::Project(
      LogicalExpr::Select(join,
                          Predicate({Cmp("t2", "v", CompareOp::kGt, 2)})),
      {ColumnRef("t1", "k"), ColumnRef("t2", "tag")});
  auto q3 = LogicalExpr::Aggregate(
      LogicalExpr::Select(LogicalExpr::Scan("t3"),
                          Predicate({Cmp("t3", "tag", CompareOp::kEq, "s1")})),
      {},
      {Agg(AggFunc::kAvg, ColumnRef("t3", "v")),
       Agg(AggFunc::kMax, ColumnRef("t3", "k"))});
  return {q1, q2, q3};
}

TEST(VexecDifferentialTest, TinyCatalogAllAlgorithms) {
  Catalog catalog = MakeTinyCatalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeTinyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 10;
  gen.seed = 7;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TinyCatalogEmptySelection) {
  // A predicate no generated row satisfies: scalar aggregation must produce
  // the identity row on both engines, grouped results must be empty.
  Catalog catalog = MakeTinyCatalog();
  auto q = LogicalExpr::Aggregate(
      LogicalExpr::Select(LogicalExpr::Scan("t1"),
                          Predicate({Cmp("t1", "v", CompareOp::kLt, -5)})),
      {},
      {Agg(AggFunc::kSum, ColumnRef("t1", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("t1", "tag"))});
  Memo memo(&catalog);
  memo.InsertBatch({q});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 20;
  gen.seed = 9;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, JoinAggHeavySkewedKeysAllAlgorithms) {
  // Three-table equi-join chain feeding grouped and scalar aggregation, over
  // a tiny key domain so every key repeats heavily: the hash table's bucket
  // lists get long, probes fan out, and group counts stay small while row
  // counts explode — the worst case for the parallel build/probe/aggregate
  // merge order. Two queries share the t1 ⋈ t2 segment, so consolidated
  // plans exercise pipelines reading materialized segments too.
  Catalog catalog = MakeTinyCatalog();
  auto join12 =
      LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t2"),
                        JoinPredicate({KeyJoin("t1", "t2")}));
  auto join123 = LogicalExpr::Join(join12, LogicalExpr::Scan("t3"),
                                   JoinPredicate({KeyJoin("t2", "t3")}));
  auto q1 = LogicalExpr::Aggregate(
      join123, {ColumnRef("t1", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("t2", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("t3", "tag")),
       Agg(AggFunc::kMax, ColumnRef("t3", "v"))});
  auto q2 = LogicalExpr::Aggregate(
      LogicalExpr::Select(join12,
                          Predicate({Cmp("t1", "v", CompareOp::kLe, 6)})),
      {},
      {Agg(AggFunc::kAvg, ColumnRef("t2", "v")), Agg(AggFunc::kCount)});
  Memo memo(&catalog);
  memo.InsertBatch({q1, q2});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 3;  // heavy key skew
  gen.seed = 21;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, EmptyJoinInputsAllAlgorithms) {
  // One join side filtered down to nothing: the probe pipeline sees empty
  // chunks everywhere, the grouped aggregation above it must come back
  // empty, and the scalar aggregation must still emit its identity row —
  // at every thread count.
  Catalog catalog = MakeTinyCatalog();
  auto empty_left = LogicalExpr::Select(
      LogicalExpr::Scan("t1"), Predicate({Cmp("t1", "v", CompareOp::kLt, -5)}));
  auto join = LogicalExpr::Join(empty_left, LogicalExpr::Scan("t2"),
                                JoinPredicate({KeyJoin("t1", "t2")}));
  auto q1 = LogicalExpr::Aggregate(
      join, {ColumnRef("t2", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("t2", "v")), Agg(AggFunc::kCount)});
  auto q2 = LogicalExpr::Aggregate(
      join, {},
      {Agg(AggFunc::kCount), Agg(AggFunc::kMin, ColumnRef("t1", "tag"))});
  Memo memo(&catalog);
  memo.InsertBatch({q1, q2});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 8;
  gen.seed = 31;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, Example1AllAlgorithmsAndSingletons) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);

  // Additionally: every shareable singleton materialization choice.
  DataSet data = GenerateData(catalog, gen);
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  const std::vector<EqId> roots = QueryRoots(memo);
  for (EqId e : problem.universe()) {
    ConsolidatedPlan plan = optimizer.Plan({e});
    auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                       WithEnvStore());
    auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                       plan, WithEnvStore());
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    for (size_t q = 0; q < roots.size(); ++q) {
      ExpectSameRows(row.ValueOrDie()[q], vec.ValueOrDie()[q],
                     "mat E" + std::to_string(e) + " q" + std::to_string(q));
    }
  }
}

TEST(VexecDifferentialTest, TpcdQ3VariantsAllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ3(0), MakeQ3(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TpcdQ9VariantsAllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 50;
  gen.domain_cap = 25;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TpcdQ11AggregateChainAllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeQ11());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 25;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TpcdQ15AllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeQ15());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 20;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

// ---- String-key joins (dictionary-encoded key kernels) ----------------------

/// Two tables joined ON their string `tag` columns. `tag_distinct` controls
/// the dictionary shape: a small span makes duplicate-heavy keys (shared
/// values, dense groups), a span >= rows makes mostly-distinct keys whose
/// per-table dictionaries differ (exercising the probe-code remap and its
/// absent-key early reject).
Catalog MakeStringKeyCatalog(double tag_distinct) {
  Catalog cat;
  for (const char* name : {"u1", "u2"}) {
    Table t(name, 48);
    t.AddColumn(ColumnDef{"k", ColumnType::kInt, 4, 16, 0, 16});
    t.AddColumn(ColumnDef{"v", ColumnType::kDouble, 8, 8, 0, 8});
    t.AddColumn(
        ColumnDef{"tag", ColumnType::kString, 8, tag_distinct, 0, tag_distinct});
    (void)cat.AddTable(std::move(t));
  }
  return cat;
}

JoinCondition TagJoin(const char* la, const char* ra) {
  JoinCondition c;
  c.left = ColumnRef(la, "tag");
  c.right = ColumnRef(ra, "tag");
  return c;
}

/// Two queries sharing the string-keyed join, so MQO algorithms materialize
/// it and dictionary-encoded columns flow through the MatStore (and, under a
/// 1-byte budget, the spill format).
std::vector<LogicalExprPtr> MakeStringKeyQueries() {
  auto join =
      LogicalExpr::Join(LogicalExpr::Scan("u1"), LogicalExpr::Scan("u2"),
                        JoinPredicate({TagJoin("u1", "u2")}));
  auto q1 = LogicalExpr::Aggregate(
      join, {ColumnRef("u1", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("u2", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("u2", "tag"))});
  auto q2 = LogicalExpr::Project(
      LogicalExpr::Select(join, Predicate({Cmp("u1", "v", CompareOp::kGt, 2)})),
      {ColumnRef("u1", "k"), ColumnRef("u2", "tag")});
  return {q1, q2};
}

TEST(VexecDifferentialTest, StringKeyJoinDuplicateHeavy) {
  // Three tag values over 48 rows per side: every probe hits a fat bucket.
  Catalog catalog = MakeStringKeyCatalog(3);
  Memo memo(&catalog);
  memo.InsertBatch(MakeStringKeyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 48;
  gen.domain_cap = 200;
  gen.seed = 11;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, StringKeyJoinAllDistinctDomains) {
  // Span >= rows: keys are (near-)distinct and the two sides draw different
  // dictionaries, so probes go through the code remap with early rejects.
  Catalog catalog = MakeStringKeyCatalog(300);
  Memo memo(&catalog);
  memo.InsertBatch(MakeStringKeyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 48;
  gen.domain_cap = 300;
  gen.seed = 13;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, StringKeysWithEmptyStrings) {
  // Hand-built tables where "" is a join key and a group key: the empty
  // string must dictionary-encode, hash, join, and aggregate like any other
  // value (it sorts first, so it takes code 0).
  Catalog catalog = MakeStringKeyCatalog(4);
  Memo memo(&catalog);
  memo.InsertBatch(MakeStringKeyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataSet data;
  NamedRows r1;
  r1.columns = {ColumnRef("", "k"), ColumnRef("", "v"), ColumnRef("", "tag")};
  r1.rows = {{Value(1.0), Value(0.5), Value("")},
             {Value(2.0), Value(3.5), Value("a")},
             {Value(3.0), Value(4.5), Value("")},
             {Value(4.0), Value(2.5), Value("b")},
             {Value(5.0), Value(6.5), Value("")}};
  ASSERT_TRUE(data.AddTableRows("u1", r1).ok());
  NamedRows r2;
  r2.columns = r1.columns;
  r2.rows = {{Value(7.0), Value(1.5), Value("")},
             {Value(8.0), Value(9.5), Value("c")},
             {Value(9.0), Value(2.5), Value("")},
             {Value(10.0), Value(0.5), Value("a")}};
  ASSERT_TRUE(data.AddTableRows("u2", r2).ok());
  CheckBackendsAgreeOn(&memo, data);
}

// ---- Need-driven column pruning ---------------------------------------------

/// Thread counts the pruning cases run at: serial, and 2 and 4 workers over
/// 4-row morsels so every parallel build, probe and merge path splits.
std::vector<ExecOptions> PruningConfigs() {
  std::vector<ExecOptions> configs = {WithEnvStore()};
  for (int threads : {2, 4}) {
    ExecOptions exec;
    exec.num_threads = threads;
    exec.morsel_rows = 4;
    configs.push_back(WithEnvStore(exec));
  }
  return configs;
}

bool IsJoin(PhysOp op) {
  return op == PhysOp::kBlockNLJoin || op == PhysOp::kIndexNLJoin ||
         op == PhysOp::kMergeJoin;
}

/// `plan` with every join executed as `join`, whatever the optimizer
/// picked. The vector engine runs every join as a pipelined hash probe; a
/// BNL/index plan and a merge-join plan still differ in their one-child
/// joins (side inputs) and sort enforcers, and the row engine answers the
/// same either way.
PlanNodePtr WithJoinsAs(const PlanNodePtr& plan, PhysOp join) {
  std::vector<PlanNodePtr> children;
  for (const PlanNodePtr& c : plan->children) {
    children.push_back(WithJoinsAs(c, join));
  }
  return MakePlanNode(IsJoin(plan->op) ? join : plan->op, plan->eq,
                      plan->output_order, plan->op_cost, plan->detail,
                      std::move(children), plan->logical_op);
}

ConsolidatedPlan WithJoinsAs(ConsolidatedPlan plan, PhysOp join) {
  plan.root_plan = WithJoinsAs(plan.root_plan, join);
  for (auto& m : plan.materialized) {
    m.compute_plan = WithJoinsAs(m.compute_plan, join);
  }
  return plan;
}

/// Joins in `plan` whose inner side is a segment of `materialized` read as
/// a side input (not a plan child).
int SegmentInnerJoins(const Memo& memo, const PlanNodePtr& plan,
                      const std::set<EqId>& materialized) {
  int n = 0;
  if (IsJoin(plan->op) && plan->children.size() == 1 &&
      materialized.count(memo.Find(memo.op(plan->logical_op).children[1])) >
          0) {
    ++n;
  }
  for (const PlanNodePtr& c : plan->children) {
    n += SegmentInnerJoins(memo, c, materialized);
  }
  return n;
}

/// One pruning case. First the differential check at threads 1/2/4 under
/// every MQO algorithm; then the no-sharing plan and every single-class
/// materialization, each with all joins forced to BNL joins and to merge
/// joins, row engine against vector engine. Adds to `segment_inners` the
/// joins executed with a materialized inner side.
void CheckPruningAgrees(Memo* memo, const DataSet& data,
                        int* segment_inners = nullptr) {
  CheckBackendsAgreeOn(memo, data, PruningConfigs());
  BatchOptimizer optimizer(memo, CostModel());
  MaterializationProblem problem(&optimizer);
  std::vector<ConsolidatedPlan> plans = {optimizer.Plan({})};
  for (EqId e : problem.universe()) plans.push_back(optimizer.Plan({e}));
  for (const ConsolidatedPlan& chosen : plans) {
    std::set<EqId> materialized;
    for (const auto& m : chosen.materialized) {
      materialized.insert(memo->Find(m.eq));
    }
    for (PhysOp join : {PhysOp::kBlockNLJoin, PhysOp::kMergeJoin}) {
      const ConsolidatedPlan plan = WithJoinsAs(chosen, join);
      if (segment_inners != nullptr) {
        *segment_inners +=
            SegmentInnerJoins(*memo, plan.root_plan, materialized);
      }
      const std::string context = std::string(PhysOpToString(join)) + " mat " +
                                  std::to_string(materialized.size());
      auto row = ExecuteConsolidatedWith(ExecBackend::kRow, memo, &data, plan,
                                         WithEnvStore());
      ASSERT_TRUE(row.ok()) << context << ": " << row.status().ToString();
      for (const ExecOptions& exec : PruningConfigs()) {
        auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, memo, &data,
                                           plan, exec);
        ASSERT_TRUE(vec.ok()) << context << ": " << vec.status().ToString();
        ASSERT_EQ(vec.ValueOrDie().size(), row.ValueOrDie().size());
        for (size_t q = 0; q < row.ValueOrDie().size(); ++q) {
          ExpectSameRows(row.ValueOrDie()[q], vec.ValueOrDie()[q],
                         context + " q" + std::to_string(q) + " t" +
                             std::to_string(exec.num_threads));
        }
      }
    }
  }
}

/// Tiny-catalog data with repeated keys, so every join fans out.
DataSet PruningData(const Catalog& catalog) {
  DataGenOptions gen;
  gen.max_rows_per_table = 24;
  gen.domain_cap = 6;
  gen.seed = 18;
  return GenerateData(catalog, gen);
}

void CheckPruningQueries(const std::vector<LogicalExprPtr>& queries,
                         int* segment_inners = nullptr) {
  Catalog catalog = MakeTinyCatalog();
  Memo memo(&catalog);
  memo.InsertBatch(queries);
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  CheckPruningAgrees(&memo, PruningData(catalog), segment_inners);
}

LogicalExprPtr Join12() {
  return LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t2"),
                           JoinPredicate({KeyJoin("t1", "t2")}));
}

LogicalExprPtr Join123() {
  return LogicalExpr::Join(Join12(), LogicalExpr::Scan("t3"),
                           JoinPredicate({KeyJoin("t2", "t3")}));
}

TEST(VexecPruningTest, SelectStarOverThreeWayJoinPrunesNothing) {
  // Query roots keep every class attribute: nothing can be pruned, and
  // each join input still emits all of its columns.
  CheckPruningQueries(
      {Join123(),
       LogicalExpr::Select(Join12(),
                           Predicate({Cmp("t1", "v", CompareOp::kLe, 6)}))});
}

TEST(VexecPruningTest, ProjectionOverJoin) {
  CheckPruningQueries(
      {LogicalExpr::Project(
           LogicalExpr::Select(Join123(),
                               Predicate({Cmp("t3", "v", CompareOp::kGt, 2)})),
           {ColumnRef("t1", "k"), ColumnRef("t3", "tag")}),
       LogicalExpr::Project(Join12(), {ColumnRef("t2", "v")})});
}

TEST(VexecPruningTest, CountStarOverJoinNeedsOnlyKeys) {
  CheckPruningQueries(
      {LogicalExpr::Aggregate(Join123(), {}, {Agg(AggFunc::kCount)}),
       LogicalExpr::Aggregate(Join12(), {}, {Agg(AggFunc::kCount)})});
}

TEST(VexecPruningTest, GroupByBuildSideColumn) {
  // Grouping on a column of the joins' inner sides: the build keeps its
  // key and the group column; the hash probes force it to the build side.
  CheckPruningQueries(
      {LogicalExpr::Aggregate(Join123(), {ColumnRef("t3", "tag")},
                              {Agg(AggFunc::kSum, ColumnRef("t1", "v"))}),
       LogicalExpr::Aggregate(Join12(), {ColumnRef("t2", "tag")},
                              {Agg(AggFunc::kMax, ColumnRef("t1", "k")),
                               Agg(AggFunc::kCount)})});
}

TEST(VexecPruningTest, JoinWithMaterializedSegmentAsInnerSide) {
  // σ(t2) is shared by both queries and, materialized, is read as the
  // rescanned inner side of a BNL join: the segment holds what both probes
  // read, and each side input projects it onto its own probe's share.
  auto shared = LogicalExpr::Select(
      LogicalExpr::Scan("t2"), Predicate({Cmp("t2", "v", CompareOp::kLe, 6)}));
  auto q1 = LogicalExpr::Aggregate(
      LogicalExpr::Join(LogicalExpr::Scan("t1"), shared,
                        JoinPredicate({KeyJoin("t1", "t2")})),
      {ColumnRef("t1", "tag")}, {Agg(AggFunc::kSum, ColumnRef("t2", "v"))});
  auto q2 = LogicalExpr::Project(
      LogicalExpr::Join(LogicalExpr::Scan("t3"), shared,
                        JoinPredicate({KeyJoin("t3", "t2")})),
      {ColumnRef("t3", "v"), ColumnRef("t2", "tag")});
  int segment_inners = 0;
  CheckPruningQueries({q1, q2}, &segment_inners);
  EXPECT_GT(segment_inners, 0);
}

TEST(VexecPruningTest, MergeJoinUnderAggregate) {
  // The merge rewrite puts a merge join directly under each aggregate: its
  // probe feeds the aggregate sink, with the aggregate's need split across
  // its inputs.
  CheckPruningQueries(
      {LogicalExpr::Aggregate(Join12(), {ColumnRef("t1", "tag")},
                              {Agg(AggFunc::kSum, ColumnRef("t2", "v")),
                               Agg(AggFunc::kMin, ColumnRef("t2", "tag"))}),
       LogicalExpr::Aggregate(Join123(), {ColumnRef("t2", "k")},
                              {Agg(AggFunc::kAvg, ColumnRef("t3", "v"))})});
}

TEST(VexecPruningTest, TwoColumnJoinKey) {
  JoinCondition tags;
  tags.left = ColumnRef("t1", "tag");
  tags.right = ColumnRef("t2", "tag");
  auto join =
      LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t2"),
                        JoinPredicate({KeyJoin("t1", "t2"), tags}));
  CheckPruningQueries(
      {LogicalExpr::Aggregate(join, {}, {Agg(AggFunc::kCount)}),
       LogicalExpr::Aggregate(join, {ColumnRef("t2", "v")},
                              {Agg(AggFunc::kSum, ColumnRef("t1", "v"))})});
}

TEST(VexecPruningTest, SelfJoinWithOneAliasFailsLikeRowEngine) {
  // Both inputs are t1 under one alias: the output would repeat every
  // column. Keys resolve against the full class attributes, so the vector
  // engine rejects the join whatever its consumers read — under the count
  // that needs only keys as under SELECT * — as the row engine does.
  auto self =
      LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t1"),
                        JoinPredicate({KeyJoin("t1", "t1")}));
  for (const LogicalExprPtr& query :
       {self, LogicalExpr::Aggregate(self, {}, {Agg(AggFunc::kCount)})}) {
    Catalog catalog = MakeTinyCatalog();
    Memo memo(&catalog);
    memo.InsertBatch({query});
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    const DataSet data = PruningData(catalog);
    BatchOptimizer optimizer(&memo, CostModel());
    const ConsolidatedPlan chosen = optimizer.Plan({});
    for (PhysOp join : {PhysOp::kBlockNLJoin, PhysOp::kMergeJoin}) {
      const ConsolidatedPlan plan = WithJoinsAs(chosen, join);
      auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                         WithEnvStore());
      ASSERT_FALSE(row.ok());
      EXPECT_EQ(row.status().code(), StatusCode::kUnimplemented);
      for (const ExecOptions& exec : PruningConfigs()) {
        auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                           plan, exec);
        ASSERT_FALSE(vec.ok()) << PhysOpToString(join);
        EXPECT_EQ(vec.status().code(), StatusCode::kUnimplemented)
            << PhysOpToString(join) << ": " << vec.status().ToString();
      }
    }
  }
}

TEST(VexecPruningTest, MergeJoinPlanWithNanKeyMatchesRowEngine) {
  // n1.k holds 200 random integral keys in [0, 200) with a NaN at row 100;
  // n2.k holds 0..199. NaN matches nothing in the row engine, so the join
  // has exactly one row per non-NaN left key. The NaN sits among the keys,
  // where an ordering join that compares with < would lose its neighbours.
  Catalog catalog;
  for (const char* name : {"n1", "n2"}) {
    Table t(name, 200);
    t.AddColumn(ColumnDef{"k", ColumnType::kDouble, 8, 200, 0, 200});
    t.AddColumn(ColumnDef{"id", ColumnType::kInt, 4, 200, 0, 200});
    (void)catalog.AddTable(std::move(t));
  }
  DataSet data;
  NamedRows left;
  NamedRows right;
  left.columns = {ColumnRef("", "k"), ColumnRef("", "id")};
  right.columns = left.columns;
  uint64_t x = 1;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double key = i == 100 ? std::numeric_limits<double>::quiet_NaN()
                                : static_cast<double>((x >> 33) % 200);
    left.rows.push_back({Value(key), Value(static_cast<double>(i))});
    right.rows.push_back(
        {Value(static_cast<double>(i)), Value(static_cast<double>(i))});
  }
  ASSERT_TRUE(data.AddTableRows("n1", left).ok());
  ASSERT_TRUE(data.AddTableRows("n2", right).ok());

  JoinCondition key;
  key.left = ColumnRef("n1", "k");
  key.right = ColumnRef("n2", "k");
  Memo memo(&catalog);
  memo.InsertBatch({LogicalExpr::Join(LogicalExpr::Scan("n1"),
                                      LogicalExpr::Scan("n2"),
                                      JoinPredicate({key}))});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel());
  const ConsolidatedPlan plan =
      WithJoinsAs(optimizer.Plan({}), PhysOp::kMergeJoin);
  auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                     WithEnvStore());
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row.ValueOrDie().size(), 1u);
  EXPECT_EQ(row.ValueOrDie()[0].rows.size(), 199u);
  for (const ExecOptions& exec : PruningConfigs()) {
    auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                       plan, exec);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    ASSERT_EQ(vec.ValueOrDie().size(), 1u);
    ExpectSameRows(row.ValueOrDie()[0], vec.ValueOrDie()[0],
                   "t" + std::to_string(exec.num_threads));
  }
}

TEST(VexecFacadeTest, OptimizeAndExecuteAgreesAcrossBackends) {
  Catalog catalog = MakeTpcdCatalog(1);
  const std::vector<std::string> batch = {
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' "
      "GROUP BY o_orderdate",
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-06-15' "
      "GROUP BY o_orderdate"};
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kRow;
  auto row = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row.ValueOrDie().results.size(), 2u);
  options.backend = ExecBackend::kVector;
  for (int threads : {1, 4}) {
    options.exec.num_threads = threads;
    auto vec = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    ASSERT_EQ(vec.ValueOrDie().results.size(), 2u);
    EXPECT_EQ(vec.ValueOrDie().backend, ExecBackend::kVector);
    for (size_t q = 0; q < 2; ++q) {
      ExpectSameRows(row.ValueOrDie().results[q], vec.ValueOrDie().results[q],
                     "facade q" + std::to_string(q) + " t" +
                         std::to_string(threads));
      EXPECT_GT(row.ValueOrDie().results[q].rows.size(), 0u);
    }
  }
}

/// Numeric arg lookup on a trace event; -1 when absent.
double ArgOf(const TraceEvent& e, const std::string& key) {
  for (const TraceArg& a : e.args) {
    if (a.key == key) return a.num;
  }
  return -1;
}

TEST(VexecTraceTest, OperatorRowCountsDeterministicAcrossThreadCounts) {
  // The traced row counts of every pipeline and operator must be identical
  // for every thread count and morsel size: per-op counters are summed over
  // workers before emission, so the morsel->worker assignment cancels out.
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  MqoResult mqo = RunMarginalGreedy(&problem);
  ASSERT_GT(mqo.num_materialized, 0);
  ConsolidatedPlan plan = optimizer.Plan(mqo.materialized);
  DataGenOptions gen;
  gen.max_rows_per_table = 60;
  gen.domain_cap = 25;
  gen.seed = 2026;
  DataSet data = GenerateData(catalog, gen);

  // (event name, two row-count args) in emission order — no timings, no
  // morsel/worker counts (those legitimately vary with the thread count).
  using Signature = std::vector<std::tuple<std::string, double, double>>;
  auto traced_run = [&](const ExecOptions& base) {
    ObsOptions obs_options;
    obs_options.trace = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.obs = &obs;
    auto results = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                           plan, exec);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    TraceCheckResult check = ValidateChromeTrace(obs.tracer()->ToChromeJson());
    EXPECT_TRUE(check.ok) << check.error;
    Signature sig;
    for (const TraceEvent& e : obs.tracer()->Events()) {
      if (e.cat != "vexec") continue;
      if (e.name.rfind("op.", 0) == 0) {
        sig.emplace_back(e.name, ArgOf(e, "in_rows"), ArgOf(e, "out_rows"));
      } else if (e.name == "pipeline" || e.name == "pipeline.zero_copy") {
        sig.emplace_back(e.name, ArgOf(e, "src_rows"), ArgOf(e, "out_rows"));
      } else if (e.name == "materialize") {
        sig.emplace_back(e.name, ArgOf(e, "eq"), ArgOf(e, "rows"));
        sig.emplace_back("materialize.cols", ArgOf(e, "eq"),
                         ArgOf(e, "cols"));
      }
    }
    return sig;
  };

  const std::vector<ExecOptions> configs = VectorConfigs();
  const Signature baseline = traced_run(configs[0]);
  ASSERT_FALSE(baseline.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    const Signature got = traced_run(configs[c]);
    ASSERT_EQ(got.size(), baseline.size())
        << "t" << configs[c].num_threads << " emitted a different event set";
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(got[i], baseline[i])
          << "event " << i << " diverged at t" << configs[c].num_threads
          << ": " << std::get<0>(baseline[i]) << " vs " << std::get<0>(got[i]);
    }
  }
}

TEST(VexecTraceTest, JoinOutputCarriesOnlyTheColumnsItsConsumersRead) {
  // orders has 9 columns and lineitem 16, so a full-width join emits 25.
  // The aggregate reads o_custkey and l_extendedprice: the join must emit
  // those 2 from its one hash probe, planned as a BNL or a merge join. Its
  // keys o_orderkey and l_orderkey reach both inputs, but nothing above
  // reads them, so they are not gathered. The date filter fuses into the
  // orders scan, so its column never reaches a chunk. The widths are
  // identical at every thread count.
  Catalog catalog = MakeTpcdCatalog(1);
  auto query = ParseQuery(
      "SELECT o_custkey, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' "
      "GROUP BY o_custkey",
      catalog);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Memo memo(&catalog);
  memo.InsertBatch({query.ValueOrDie()});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel());
  DataGenOptions gen;
  gen.max_rows_per_table = 60;
  gen.domain_cap = 25;
  gen.seed = 18;
  DataSet data = GenerateData(catalog, gen);

  // (event name, width) in emission order.
  using Widths = std::vector<std::pair<std::string, double>>;
  auto traced_widths = [&](const ConsolidatedPlan& plan,
                           const ExecOptions& base) {
    ObsOptions obs_options;
    obs_options.trace = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.obs = &obs;
    auto results = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                           plan, exec);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    Widths widths;
    for (const TraceEvent& e : obs.tracer()->Events()) {
      if (e.cat != "vexec") continue;
      if (e.name.rfind("op.", 0) == 0) {
        widths.emplace_back(e.name, ArgOf(e, "out_cols"));
      } else if (e.name == "pipeline") {
        widths.emplace_back(e.name, ArgOf(e, "src_cols"));
      }
    }
    return widths;
  };

  // Each join shape whatever join the optimizer picked: both run as one
  // hash probe.
  const std::string span = "op.probe";
  for (PhysOp join : {PhysOp::kBlockNLJoin, PhysOp::kMergeJoin}) {
    const ConsolidatedPlan plan = WithJoinsAs(optimizer.Plan({}), join);
    std::vector<ExecOptions> configs = PruningConfigs();
    const Widths baseline = traced_widths(plan, configs[0]);
    int joins = 0;
    for (const auto& [name, width] : baseline) {
      if (name != span) continue;
      ++joins;
      EXPECT_EQ(width, 2) << span << " emits columns no consumer reads";
    }
    EXPECT_EQ(joins, 1) << span;
    for (size_t c = 1; c < configs.size(); ++c) {
      EXPECT_EQ(traced_widths(plan, configs[c]), baseline)
          << span << " t" << configs[c].num_threads;
    }
  }
}

// ---- Bloom-filter pushdown --------------------------------------------------

/// Counter value from a metrics snapshot; 0 when absent.
double CounterOf(ObsContext* obs, const std::string& name) {
  auto snapshot = obs->metrics()->Snapshot();
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second.value;
}

/// A probe-source pipeline joining k against a build side covering only
/// [0, build_keys): rows ready for manual RunVecPipeline runs.
struct BloomFixture {
  ColumnBatch probe;
  std::shared_ptr<const JoinHashTable> table;

  BloomFixture(int probe_rows, int build_keys) {
    probe.names = {ColumnRef("p", "k"), ColumnRef("p", "v")};
    ColumnVector pk(VecType::kInt64);
    ColumnVector pv(VecType::kDouble);
    for (int i = 0; i < probe_rows; ++i) {
      pk.ints().push_back(i % 997);  // mostly outside the build domain
      pv.doubles().push_back(static_cast<double>(i % 7));
    }
    probe.columns = {pk, pv};
    probe.num_rows = probe_rows;
    ColumnBatch build;
    build.names = {ColumnRef("b", "k")};
    ColumnVector bk(VecType::kInt64);
    for (int i = 0; i < build_keys; ++i) bk.ints().push_back(i);
    build.columns = {bk};
    build.num_rows = build_keys;
    table = std::make_shared<const JoinHashTable>(
        JoinHashTable::Build(std::move(build), {0}, PipelineOptions{}));
  }

  VecPipeline MakePipeline(bool with_bloom) const {
    VecPipeline pipe;
    pipe.source = probe;
    pipe.keep_idx = {0, 1};
    pipe.chunk_names = probe.names;
    pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
        table, std::vector<int>{0}, std::vector<int>{0, 1},
        std::vector<int>{0}, std::vector<ColumnRef>{ColumnRef("p", "k"), ColumnRef("p", "v"),
                               ColumnRef("b", "k")}));
    if (with_bloom) {
      pipe.bloom = table->bloom();
      pipe.bloom_key_idx = {0};
    }
    return pipe;
  }
};

TEST(VexecBloomTest, PushdownPreservesJoinOutputExactly) {
  // Most probe keys fall outside [0, 40): the Bloom prefilter (plus the zone
  // min/max shortcut) drops them before materialization, and the join output
  // must be identical — same rows, same order — with the pushdown on or off,
  // at every thread count.
  BloomFixture fx(2000, 40);
  ExecOptions serial;
  auto base = RunVecPipeline(fx.MakePipeline(false), serial);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base.ValueOrDie().num_rows, 0u);
  for (const ExecOptions& exec : VectorConfigs()) {
    auto got = RunVecPipeline(fx.MakePipeline(true), exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const ColumnBatch& b = base.ValueOrDie();
    const ColumnBatch& g = got.ValueOrDie();
    ASSERT_EQ(g.num_rows, b.num_rows) << "t" << exec.num_threads;
    for (size_t c = 0; c < b.columns.size(); ++c) {
      for (size_t r = 0; r < b.num_rows; ++r) {
        ASSERT_TRUE(ColumnVector::CellsEqual(b.columns[c], r, g.columns[c], r))
            << "t" << exec.num_threads << " col " << c << " row " << r;
      }
    }
  }
}

TEST(VexecBloomTest, PrunedRowCountsDeterministicAcrossThreads) {
  // vexec.bloom_rows_pruned counts rows dropped by the per-row predicate —
  // a pure function of each row, so the total is identical for every thread
  // count. Morsel prunes depend on morsel boundaries and may vary.
  BloomFixture fx(2000, 40);
  std::vector<double> pruned;
  for (const ExecOptions& base : VectorConfigs()) {
    ObsOptions obs_options;
    obs_options.metrics = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.obs = &obs;
    auto got = RunVecPipeline(fx.MakePipeline(true), exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    pruned.push_back(CounterOf(&obs, "vexec.bloom_rows_pruned"));
  }
  // ~1920 of 2000 rows lie outside [0, 40); the zone+Bloom prefilter must
  // drop nearly all of them (Bloom false positives keep a few percent).
  EXPECT_GE(pruned[0], 1800.0);
  for (size_t i = 1; i < pruned.size(); ++i) {
    EXPECT_EQ(pruned[i], pruned[0]) << "thread config " << i;
  }
}

TEST(VexecBloomTest, DictionaryProbeCountersSurfaceInMetrics) {
  // A string-keyed probe between sides with different dictionaries must
  // report dictionary-kernel rows (vexec.dict_hits) and the remap builds
  // (vexec.dict_remap) when metrics are on.
  ColumnBatch probe;
  probe.names = {ColumnRef("p", "tag")};
  ColumnVector pt(VecType::kString);
  for (int i = 0; i < 64; ++i) pt.strings().push_back("t" + std::to_string(i % 6));
  ASSERT_TRUE(pt.DictEncode());
  probe.columns = {pt};
  probe.num_rows = 64;
  ColumnBatch build;
  build.names = {ColumnRef("b", "tag")};
  ColumnVector bt(VecType::kString);
  for (int i = 0; i < 32; ++i) bt.strings().push_back("t" + std::to_string(i % 4));
  ASSERT_TRUE(bt.DictEncode());
  build.columns = {bt};
  build.num_rows = 32;
  ASSERT_NE(probe.columns[0].dict(), build.columns[0].dict());
  auto table = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(std::move(build), {0}, PipelineOptions{}));

  VecPipeline pipe;
  pipe.source = probe;
  pipe.keep_idx = {0};
  pipe.chunk_names = probe.names;
  pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
      table, std::vector<int>{0}, std::vector<int>{0}, std::vector<int>{0},
      std::vector<ColumnRef>{ColumnRef("p", "tag"), ColumnRef("b", "tag")}));

  ObsOptions obs_options;
  obs_options.metrics = true;
  ObsContext obs(obs_options);
  ExecOptions exec;
  exec.obs = &obs;
  auto got = RunVecPipeline(pipe, exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got.ValueOrDie().num_rows, 0u);
  EXPECT_EQ(CounterOf(&obs, "vexec.dict_hits"), 64.0);
  EXPECT_EQ(CounterOf(&obs, "vexec.dict_remap"), 1.0);
}

TEST(VexecBloomTest, RejectsAbsentKeysInsideTheBuildRange) {
  // Build on the even integers in [0, 2n) and probe the odd ones: every
  // probe key lies inside the build's min/max, so only the bit array can
  // reject it. HashDouble of an integral key has constant low bits, so bit
  // positions taken from the key hash unmixed pass most absent keys.
  for (int n : {1000, 10000, 50000}) {
    ColumnBatch build;
    build.names = {ColumnRef("b", "k")};
    ColumnVector bk(VecType::kInt64);
    ColumnBatch probe;
    probe.names = {ColumnRef("p", "k")};
    ColumnVector pk(VecType::kInt64);
    SelVector sel;
    for (int i = 0; i < n; ++i) {
      bk.ints().push_back(2 * i);
      pk.ints().push_back(2 * i + 1);
      sel.push_back(static_cast<uint32_t>(i));
    }
    build.columns = {bk};
    build.num_rows = n;
    probe.columns = {pk};
    probe.num_rows = n;
    const JoinHashTable table =
        JoinHashTable::Build(std::move(build), {0}, PipelineOptions{});
    ASSERT_NE(table.bloom(), nullptr);
    const size_t dropped =
        BloomRefineSel(probe, {0}, *table.bloom(), /*use_range=*/false, &sel);
    EXPECT_GE(dropped, static_cast<size_t>(n) * 9 / 10) << n << " build keys";
  }
}

// ---- Persistent base-relation join indexes ---------------------------------

/// What the engine builds for a consolidated plan once every base relation's
/// join index exists: one table per join whose build side is a plan child or
/// a materialized side input. `base_reads` counts the other side inputs, the
/// unmaterialized base relations that probe their persistent index.
struct PlanBuilds {
  int warm = 0;
  int base_reads = 0;
};

PlanBuilds CountPlanBuilds(const Memo& memo, const ConsolidatedPlan& plan) {
  std::set<EqId> materialized;
  for (const auto& m : plan.materialized) materialized.insert(memo.Find(m.eq));
  PlanBuilds count;
  std::function<void(const PlanNodePtr&)> walk = [&](const PlanNodePtr& node) {
    if (IsJoin(node->op)) {
      const EqId inner = memo.Find(memo.op(node->logical_op).children[1]);
      if (node->children.size() > 1 || materialized.count(inner) > 0) {
        ++count.warm;
      } else {
        ++count.base_reads;
      }
    }
    for (const auto& child : node->children) walk(child);
  };
  walk(plan.root_plan);
  for (const auto& m : plan.materialized) walk(m.compute_plan);
  return count;
}

/// vexec.hash_builds of a facade run with metrics on (0 when absent).
double HashBuildsOf(const MqoExecutionOutcome& run) {
  const std::string key = "counter vexec.hash_builds = ";
  const size_t at = run.metrics_report.find(key);
  return at == std::string::npos
             ? 0.0
             : std::stod(run.metrics_report.substr(at + key.size()));
}

TEST(VexecIndexTest, WarmRunsBuildOnlyNonBaseInputsAndMatchRowEngine) {
  // BQ3 under every algorithm, each on its own DataSet: the first run builds
  // the base relations' indexes; every later run on that DataSet, at every
  // thread count, builds exactly the plan's executed and materialized build
  // sides and returns the row engine's rows.
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(3));
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel(), EnvOptimizerOptions());
  MaterializationProblem problem(&optimizer);
  DataGenOptions gen;
  gen.max_rows_per_table = 120;
  gen.domain_cap = 40;
  for (Algorithm alg : kAllAlgorithms) {
    const ConsolidatedPlan plan =
        optimizer.Plan(RunAlgorithm(alg, &problem).materialized);
    const PlanBuilds expected = CountPlanBuilds(memo, plan);
    ASSERT_GT(expected.base_reads, 0);
    const DataSet data = GenerateData(catalog, gen);
    auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                       WithEnvStore());
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    std::vector<double> builds;
    for (int threads : {1, 1, 2, 4, 8}) {
      ObsOptions obs_options;
      obs_options.metrics = true;
      ObsContext obs(obs_options);
      ExecOptions exec;
      exec.num_threads = threads;
      exec.morsel_rows = 16;
      exec.obs = &obs;
      auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                         plan, WithEnvStore(exec));
      ASSERT_TRUE(vec.ok()) << vec.status().ToString();
      for (size_t q = 0; q < row.ValueOrDie().size(); ++q) {
        ExpectSameRows(row.ValueOrDie()[q], vec.ValueOrDie()[q],
                       "q" + std::to_string(q) + " t" +
                           std::to_string(threads));
      }
      builds.push_back(CounterOf(&obs, "vexec.hash_builds"));
    }
    EXPECT_GT(builds[0], expected.warm);
    EXPECT_LE(builds[0], expected.warm + expected.base_reads);
    for (size_t i = 1; i < builds.size(); ++i) {
      EXPECT_EQ(builds[i], expected.warm) << "run " << i;
    }
  }
}

TEST(VexecIndexTest, EachSegmentReadIsCountedOnce) {
  // A side input reads its segment once, whether it finds one or falls back
  // to the base relation's index: every materialized class is read exactly
  // as often as the plan expects, on both engines.
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 120;
  gen.domain_cap = 40;
  const DataSet data = GenerateData(catalog, gen);
  for (ExecBackend backend : {ExecBackend::kRow, ExecBackend::kVector}) {
    MqoOptions options;
    options.backend = backend;
    auto run = OptimizeAndExecuteBatch(catalog, MakeBatchedWorkload(3), data,
                                       options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_FALSE(run.ValueOrDie().explain.empty());
    for (const ExplainEntry& e : run.ValueOrDie().explain) {
      EXPECT_EQ(static_cast<double>(e.run.reads), e.est.expected_reads)
          << "E" << e.est.eq;
    }
  }
}

TEST(VexecIndexTest, SecondIdenticalFacadeBatchBuildsNoBaseRelation) {
  // Two-table joins whose inner is a base relation: once the first batch has
  // built the index, an identical batch on the same DataSet builds nothing.
  Catalog catalog = MakeTinyCatalog();
  auto join = [](const char* a, const char* b) {
    return LogicalExpr::Join(LogicalExpr::Scan(a), LogicalExpr::Scan(b),
                             JoinPredicate({KeyJoin(a, b)}));
  };
  const std::vector<LogicalExprPtr> batch = {
      LogicalExpr::Aggregate(join("t1", "t2"), {ColumnRef("t1", "tag")},
                             {Agg(AggFunc::kCount)}),
      LogicalExpr::Project(join("t2", "t3"),
                           {ColumnRef("t2", "k"), ColumnRef("t3", "v")})};
  DataGenOptions gen;
  gen.seed = 7;
  const DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.algorithm = Algorithm::kVolcano;
  options.backend = ExecBackend::kRow;
  auto row = OptimizeAndExecuteBatch(catalog, batch, data, options);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  options.backend = ExecBackend::kVector;
  options.obs.metrics = true;
  std::vector<double> builds;
  for (int run = 0; run < 3; ++run) {
    auto vec = OptimizeAndExecuteBatch(catalog, batch, data, options);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    for (size_t q = 0; q < batch.size(); ++q) {
      ExpectSameRows(row.ValueOrDie().results[q], vec.ValueOrDie().results[q],
                     "run " + std::to_string(run) + " q" + std::to_string(q));
    }
    builds.push_back(HashBuildsOf(vec.ValueOrDie()));
  }
  EXPECT_EQ(builds[0], 2.0);  // one index per (inner table, key)
  EXPECT_EQ(builds[1], 0.0);
  EXPECT_EQ(builds[2], 0.0);
}

TEST(VexecIndexTest, ReplacedTableIsNotProbedThroughItsOldIndex) {
  // AddTable over a table whose index an earlier batch built: the next batch
  // must see the new rows, exactly as a fresh DataSet holding them does.
  Catalog catalog = MakeTinyCatalog();
  const std::vector<LogicalExprPtr> batch = MakeTinyQueries();
  DataGenOptions gen;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  gen.seed = 12;
  const DataSet fresh = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  auto before = OptimizeAndExecuteBatch(catalog, batch, data, options);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  for (const std::string& table : catalog.TableNames()) {
    data.AddTable(table, *fresh.GetTable(table).ValueOrDie());
  }
  auto after = OptimizeAndExecuteBatch(catalog, batch, data, options);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto want = OptimizeAndExecuteBatch(catalog, batch, fresh, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  bool changed = false;
  for (size_t q = 0; q < batch.size(); ++q) {
    ExpectSameRows(want.ValueOrDie().results[q], after.ValueOrDie().results[q],
                   "q" + std::to_string(q));
    changed |= before.ValueOrDie().results[q].rows !=
               want.ValueOrDie().results[q].rows;
  }
  EXPECT_TRUE(changed) << "the new data must change some result";
}

TEST(VexecIndexTest, IndexKeepsNoProbeDictionaryAfterThePipeline) {
  // A persistent index probed with a dictionary it has never seen remaps
  // codes for that pipeline only: each pipeline counts its own remap, and the
  // dictionary is released with the pipeline.
  ColumnVector bt(VecType::kString);
  for (int i = 0; i < 32; ++i) bt.strings().push_back("t" + std::to_string(i % 4));
  ASSERT_TRUE(bt.DictEncode());
  ColumnStore store;
  ASSERT_TRUE(store.AddColumn("tag", bt).ok());
  DataSet data;
  data.AddTable("b", std::move(store));

  ObsOptions obs_options;
  obs_options.metrics = true;
  ObsContext obs(obs_options);
  ExecOptions exec;
  exec.num_threads = 4;
  exec.morsel_rows = 8;
  exec.obs = &obs;
  auto index = BaseJoinIndex(data, "b", {"tag"}, exec, MetricsOf(&obs));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto again = BaseJoinIndex(data, "b", {"tag"}, exec, MetricsOf(&obs));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie(), index.ValueOrDie());
  EXPECT_EQ(CounterOf(&obs, "vexec.hash_builds"), 1.0);

  for (int run = 1; run <= 2; ++run) {
    std::weak_ptr<const ColumnDict> probe_dict;
    {
      ColumnBatch probe;
      probe.names = {ColumnRef("p", "tag")};
      ColumnVector pt(VecType::kString);
      for (int i = 0; i < 64; ++i) {
        pt.strings().push_back("t" + std::to_string(i % 6));
      }
      ASSERT_TRUE(pt.DictEncode());
      probe_dict = pt.dict();
      probe.columns = {pt};
      probe.num_rows = 64;
      VecPipeline pipe;
      pipe.source = std::move(probe);
      pipe.keep_idx = {0};
      pipe.chunk_names = pipe.source.names;
      pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
          index.ValueOrDie(), std::vector<int>{0}, std::vector<int>{0},
          std::vector<int>{0},
          std::vector<ColumnRef>{ColumnRef("p", "tag"), ColumnRef("b", "tag")}));
      auto got = RunVecPipeline(pipe, exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // 44 of the 64 probe rows carry t0..t3, each matching 8 build rows.
      EXPECT_EQ(got.ValueOrDie().num_rows, 44u * 8);
      EXPECT_EQ(CounterOf(&obs, "vexec.dict_remap"), run);
      ASSERT_FALSE(probe_dict.expired());
    }
    EXPECT_TRUE(probe_dict.expired()) << "run " << run;
  }
}

TEST(VexecIndexTest, ConcurrentClientsShareOneDataSetsIndexes) {
  // Two clients on one fresh DataSet both miss, may both build, and then
  // probe whichever index was inserted first, concurrently.
  Catalog catalog = MakeTinyCatalog();
  const std::vector<LogicalExprPtr> batch = MakeTinyQueries();
  DataGenOptions gen;
  gen.seed = 5;
  const DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kRow;
  auto row = OptimizeAndExecuteBatch(catalog, batch, data, options);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  options.backend = ExecBackend::kVector;
  options.exec.num_threads = 2;
  options.exec.morsel_rows = 8;
  std::vector<Result<MqoExecutionOutcome>> got(2, Status::Internal("not run"));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < got.size(); ++c) {
    clients.emplace_back([&, c] {
      got[c] = OptimizeAndExecuteBatch(catalog, batch, data, options);
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < got.size(); ++c) {
    ASSERT_TRUE(got[c].ok()) << got[c].status().ToString();
    for (size_t q = 0; q < batch.size(); ++q) {
      ExpectSameRows(row.ValueOrDie().results[q],
                     got[c].ValueOrDie().results[q],
                     "client " + std::to_string(c) + " q" + std::to_string(q));
    }
  }
}

// ---- Zone-map scan skipping and compressed-domain filters -------------------

/// A clustered (sorted) scan source: "k" = row / 2, so a narrow band filter
/// touches few 1024-row zone granules and the rest prune; "v" is payload.
/// Optionally FOR-encodes the key column so the same pipeline exercises the
/// compressed-domain comparison kernels.
struct ZoneFixture {
  ColumnBatch source;

  ZoneFixture(size_t rows, bool for_encode) {
    ColumnVector k(VecType::kInt64);
    ColumnVector v(VecType::kDouble);
    for (size_t i = 0; i < rows; ++i) {
      k.ints().push_back(static_cast<int64_t>(i / 2));
      v.doubles().push_back(static_cast<double>(i % 13));
    }
    if (for_encode) {
      EXPECT_TRUE(k.ForEncode());
    }
    k.BuildZoneMap();
    v.BuildZoneMap();
    source.names = {ColumnRef("s", "k"), ColumnRef("s", "v")};
    source.columns = {std::move(k), std::move(v)};
    source.num_rows = rows;
  }

  /// Scan + fused band filter lo <= k <= hi, keeping both columns. Without
  /// `with_zones` the source's zone maps are cleared (in the pipeline's copy
  /// only), so every zone runs the filter.
  VecPipeline MakePipeline(int lo, int hi, bool with_zones = true) const {
    VecPipeline pipe;
    pipe.source = source;
    if (!with_zones) {
      for (ColumnVector& col : pipe.source.columns) col.SetZoneMap(nullptr);
    }
    pipe.source_filters = {Cmp("s", "k", CompareOp::kGe, lo),
                           Cmp("s", "k", CompareOp::kLe, hi)};
    pipe.source_filter_idx = {0, 0};
    pipe.keep_idx = {0, 1};
    pipe.chunk_names = source.names;
    return pipe;
  }
};

TEST(VexecZoneTest, SkippingPreservesFilterOutputAcrossFormsAndThreads) {
  // The surviving rows — and their morsel-order concatenation — must be
  // identical with zone maps on or off, plain or FOR-encoded, at every
  // thread count. Zone skipping is sound (a pruned zone holds no passing
  // row), so it is invisible in the output.
  const size_t rows = 8192;
  ZoneFixture plain(rows, /*for_encode=*/false);
  ZoneFixture enc(rows, /*for_encode=*/true);
  ASSERT_TRUE(enc.source.columns[0].for_encoded());
  auto base =
      RunVecPipeline(plain.MakePipeline(100, 300, /*with_zones=*/false), {});
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const ColumnBatch& b = base.ValueOrDie();
  ASSERT_EQ(b.num_rows, 402u);  // k = row/2: each value in [100,300] twice
  for (const ZoneFixture* fx : {&plain, &enc}) {
    for (const ExecOptions& exec : VectorConfigs()) {
      auto got = RunVecPipeline(fx->MakePipeline(100, 300), exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const ColumnBatch& g = got.ValueOrDie();
      ASSERT_EQ(g.num_rows, b.num_rows)
          << "encoded=" << (fx == &enc) << " t" << exec.num_threads;
      for (size_t c = 0; c < b.columns.size(); ++c) {
        for (size_t r = 0; r < b.num_rows; ++r) {
          ASSERT_TRUE(
              ColumnVector::CellsEqual(b.columns[c], r, g.columns[c], r))
              << "encoded=" << (fx == &enc) << " t" << exec.num_threads
              << " col " << c << " row " << r;
        }
      }
    }
  }
}

TEST(VexecZoneTest, PrunedZoneCountDeterministicAcrossThreads) {
  // The pruned-zone set is resolved serially at the fixed 1024-row granule
  // before any worker starts, so vexec.zone_morsels_pruned is a pure
  // function of (column zones, predicate) — identical at every thread count
  // and morsel size. 8192 rows = 8 zones; the band [100, 300] lives
  // entirely in zone 0 (values 0..511), so zones 1..7 prune.
  const size_t rows = 8192;
  for (bool encode : {false, true}) {
    ZoneFixture fx(rows, encode);
    std::vector<double> pruned;
    for (const ExecOptions& base : VectorConfigs()) {
      ObsOptions obs_options;
      obs_options.metrics = true;
      ObsContext obs(obs_options);
      ExecOptions exec = base;
      exec.obs = &obs;
      auto got = RunVecPipeline(fx.MakePipeline(100, 300), exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.ValueOrDie().num_rows, 402u);
      pruned.push_back(CounterOf(&obs, "vexec.zone_morsels_pruned"));
      if (encode) {
        // The encoded source also surfaces the compressed-domain counters,
        // and the per-block comparison row count is itself deterministic.
        EXPECT_GT(CounterOf(&obs, "vexec.for_blocks"), 0.0);
        EXPECT_GT(CounterOf(&obs, "vexec.compressed_cmp_rows"), 0.0);
      }
    }
    ASSERT_EQ(pruned.size(), 3u);
    EXPECT_EQ(pruned[0], 7.0) << "encoded=" << encode;
    EXPECT_EQ(pruned[1], pruned[0]) << "encoded=" << encode;
    EXPECT_EQ(pruned[2], pruned[0]) << "encoded=" << encode;
  }
}

TEST(VexecZoneTest, CompressedCompareRowCountDeterministicAcrossThreads) {
  // Without zone maps, every morsel runs the filter; on an encoded column the
  // mid-block (partially passing) row count is per-block, not per-morsel,
  // so it too must not vary with the thread count.
  ZoneFixture fx(8192, /*for_encode=*/true);
  std::vector<double> cmp_rows;
  for (const ExecOptions& base : VectorConfigs()) {
    ObsOptions obs_options;
    obs_options.metrics = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.obs = &obs;
    auto got =
        RunVecPipeline(fx.MakePipeline(100, 300, /*with_zones=*/false), exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    cmp_rows.push_back(CounterOf(&obs, "vexec.compressed_cmp_rows"));
  }
  EXPECT_GT(cmp_rows[0], 0.0);
  EXPECT_EQ(cmp_rows[1], cmp_rows[0]);
  EXPECT_EQ(cmp_rows[2], cmp_rows[0]);
}

TEST(VexecZoneTest, GeneratedDataIsValueIdenticalAcrossPhysicalForms) {
  // DataGenOptions::numeric_compression only picks the physical form: the
  // same seed yields cell-identical tables encoded or plain, which is what
  // lets benchmarks and the differential suite ablate FOR on one database.
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 2500;
  gen.seed = 11;
  gen.numeric_compression = true;
  DataSet enc_data = GenerateData(catalog, gen);
  gen.numeric_compression = false;
  DataSet plain_data = GenerateData(catalog, gen);
  const ColumnStore* enc = enc_data.GetTable("lineitem").ValueOrDie();
  const ColumnStore* plain = plain_data.GetTable("lineitem").ValueOrDie();
  ASSERT_EQ(enc->num_rows(), plain->num_rows());
  bool any_for = false;
  for (size_t c = 0; c < enc->num_columns(); ++c) {
    const ColumnVector& e = enc->column(c);
    const ColumnVector& p = plain->column(c);
    EXPECT_FALSE(p.for_encoded());
    any_for |= e.for_encoded();
    if (e.type() == VecType::kInt64) {
      // Narrow generated domains also persist zone maps on both forms.
      EXPECT_NE(e.zone_map(), nullptr);
      EXPECT_NE(p.zone_map(), nullptr);
      for (size_t r = 0; r < enc->num_rows(); ++r) {
        ASSERT_EQ(e.Int64At(r), p.ints()[r]) << "col " << c << " row " << r;
      }
    }
  }
  EXPECT_TRUE(any_for);  // domain_cap-bounded int columns compress
}

TEST(VexecBudgetTest, TinyBudgetForcesSpillsWithoutChangingResults) {
  // Drive the vector executor directly so the store's spill counters are
  // observable: with a 1-byte budget every materialized segment must evict
  // to disk and every read must reload, and the answers must not move.
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  gen.seed = 77;
  DataSet data = GenerateData(catalog, gen);
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  MqoResult result = RunGreedy(&problem);
  ASSERT_FALSE(result.materialized.empty());
  ConsolidatedPlan plan = optimizer.Plan(result.materialized);

  VectorPlanExecutor unlimited(&memo, &data);
  auto base = unlimited.ExecuteConsolidated(plan);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(unlimited.store().stats().evictions, 0);

  ExecOptions exec;
  exec.mat_budget_bytes = 1;
  VectorPlanExecutor budgeted(&memo, &data, WithEnvStore(exec));
  auto spilled = budgeted.ExecuteConsolidated(plan);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  const MatStoreStats& stats = budgeted.store().stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.reloads, 0);
  EXPECT_GT(stats.bytes_spilled, 0u);
  // At most the last reloaded segment may still sit resident (a reload
  // stays over budget until the next enforcement point).
  EXPECT_LE(budgeted.store().bytes_used(), stats.bytes_reloaded);
  ASSERT_EQ(base.ValueOrDie().size(), spilled.ValueOrDie().size());
  for (size_t q = 0; q < base.ValueOrDie().size(); ++q) {
    ExpectSameRows(base.ValueOrDie()[q], spilled.ValueOrDie()[q],
                   "budgeted q" + std::to_string(q));
  }
}

// One SharedSegmentCache serving both engines. The row engine publishes
// full-width segments (plain columns from BatchFromRows), which cover every
// need: the vector engine then computes nothing. The vector engine publishes
// (FOR-encoded, zone-mapped) segments narrowed to its readers' needs: a row
// run reads whole segments, so it recomputes exactly the classes whose
// segment lacks an attribute and republishes them at full width, after
// which a second row run computes nothing. Every run answers exactly like
// a cache-less run of its engine. Adds the vector run's narrowed classes to
// `*vector_narrowed`.
void CheckMixedEngineCacheOn(Memo* memo, const DataSet& data,
                             const ConsolidatedPlan& plan,
                             int64_t* vector_narrowed) {
  ASSERT_FALSE(plan.materialized.empty());
  const int64_t classes = static_cast<int64_t>(plan.materialized.size());
  ExecOptions parallel = WithEnvStore();
  parallel.num_threads = 2;
  parallel.morsel_rows = 8;
  const std::pair<ExecBackend, ExecBackend> orders[] = {
      {ExecBackend::kRow, ExecBackend::kVector},
      {ExecBackend::kVector, ExecBackend::kRow}};
  for (const auto& [first, second] : orders) {
    const std::string context = std::string(ExecBackendToString(first)) +
                                " then " + ExecBackendToString(second);
    auto reference =
        ExecuteConsolidatedResult(second, memo, &data, plan, parallel);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    SharedSegmentCache cache(MatStoreOptions{});
    ExecOptions exec = parallel;
    exec.shared_cache = &cache;
    auto warm = ExecuteConsolidatedResult(first, memo, &data, plan, exec);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm.ValueOrDie().cross_batch_hits, 0) << context;
    // Classes whose published segment lacks an attribute.
    int64_t narrowed = 0;
    for (const SegmentRuntime& seg : warm.ValueOrDie().segments) {
      const size_t attrs = memo->Attributes(seg.eq).size();
      if (static_cast<size_t>(seg.columns) < attrs) ++narrowed;
    }
    if (first == ExecBackend::kRow) {
      EXPECT_EQ(narrowed, 0) << context;
    } else {
      *vector_narrowed += narrowed;
    }
    std::vector<ExecResult> served;
    for (int run = 0; run < 2; ++run) {
      auto again = ExecuteConsolidatedResult(second, memo, &data, plan, exec);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      served.push_back(std::move(again).ValueOrDie());
    }
    EXPECT_EQ(served[0].cross_batch_hits, classes - narrowed) << context;
    EXPECT_EQ(cache.stats().widenings, narrowed) << context;
    EXPECT_EQ(served[1].cross_batch_hits, classes) << context;
    for (const SegmentRuntime& seg : served[1].segments) {
      if (second == ExecBackend::kRow) {
        EXPECT_EQ(static_cast<size_t>(seg.columns),
                  memo->Attributes(seg.eq).size())
            << context;
      }
    }
    const auto& want = reference.ValueOrDie().results;
    for (const ExecResult& got : served) {
      ASSERT_EQ(want.size(), got.results.size()) << context;
      for (size_t q = 0; q < want.size(); ++q) {
        ExpectSameRows(want[q], got.results[q],
                       context + " q" + std::to_string(q));
      }
    }
  }
}

TEST(VexecCacheTest, MixedEnginesShareOneSegmentCache) {
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 77;
  int64_t narrowed = 0;
  {
    Catalog catalog = MakeExample1Catalog();
    Memo memo(&catalog);
    memo.InsertBatch(MakeExample1Queries());
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    DataSet data = GenerateData(catalog, gen);
    BatchOptimizer optimizer(&memo, CostModel());
    MaterializationProblem problem(&optimizer);
    CheckMixedEngineCacheOn(&memo, data,
                            optimizer.Plan(RunGreedy(&problem).materialized),
                            &narrowed);
  }
  {
    // String, date and numeric columns: dictionary and FOR segments cross
    // the engine boundary.
    Catalog catalog = MakeTpcdCatalog(1);
    Memo memo(&catalog);
    memo.InsertBatch({MakeQ3(0), MakeQ3(1)});
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    DataSet data = GenerateData(catalog, gen);
    BatchOptimizer optimizer(&memo, CostModel());
    MaterializationProblem problem(&optimizer);
    CheckMixedEngineCacheOn(
        &memo, data, optimizer.Plan(RunMarginalGreedy(&problem).materialized),
        &narrowed);
  }
  // The vector-then-row order exercised the republish at full width.
  EXPECT_GT(narrowed, 0);
}

// ---- Segments narrowed to their readers' needs ------------------------------

/// `plan`'s materialized classes, children first (the executor's order).
std::vector<const ConsolidatedPlan::MatNode*> ChildrenFirst(
    const Memo& memo, const ConsolidatedPlan& plan) {
  std::map<EqId, size_t> position;
  const std::vector<EqId> topo = memo.TopologicalClasses();
  for (size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  std::vector<const ConsolidatedPlan::MatNode*> out;
  for (const auto& m : plan.materialized) out.push_back(&m);
  std::sort(out.begin(), out.end(),
            [&](const ConsolidatedPlan::MatNode* a,
                const ConsolidatedPlan::MatNode* b) {
              return position[memo.Find(a->eq)] < position[memo.Find(b->eq)];
            });
  return out;
}

/// What each materialized class's segment must hold when `plan` runs with
/// no cache: the query roots' reads at full width, then each compute
/// plan's, ancestors first, with its own class's need.
std::unordered_map<EqId, ColumnNeed> ReaderNeeds(Memo* memo,
                                                 const ConsolidatedPlan& plan) {
  auto full = [memo](EqId eq) {
    const auto& attrs = memo->Attributes(memo->Find(eq));
    return ColumnNeed(attrs.begin(), attrs.end());
  };
  std::unordered_set<EqId> materialized;
  for (const auto& m : plan.materialized) materialized.insert(memo->Find(m.eq));
  std::unordered_map<EqId, ColumnNeed> needs;
  for (const PlanNodePtr& query : plan.root_plan->children) {
    EXPECT_TRUE(
        AddSegmentReads(memo, query, full(query->eq), materialized, &needs)
            .ok());
  }
  const auto order = ChildrenFirst(*memo, plan);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const EqId eq = memo->Find((*it)->eq);
    const ColumnNeed need = needs.count(eq) > 0 ? needs[eq] : full(eq);
    EXPECT_TRUE(
        AddSegmentReads(memo, (*it)->compute_plan, need, materialized, &needs)
            .ok());
  }
  return needs;
}

/// The columns of every segment a run published into `cache` (a cache only
/// that run used), by class.
std::map<EqId, std::vector<ColumnRef>> StoredColumns(
    const Memo& memo, const ConsolidatedPlan& plan, SharedSegmentCache* cache) {
  std::unordered_map<EqId, uint64_t> fps;
  std::unordered_map<EqId, std::string> keys;
  std::map<EqId, std::vector<ColumnRef>> out;
  for (const auto& m : plan.materialized) {
    const EqId eq = memo.Find(m.eq);
    SegmentRef ref = cache->Lookup(ClassFingerprint(memo, eq, &fps),
                                   ClassStructuralKey(memo, eq, &fps, &keys),
                                   nullptr);
    EXPECT_TRUE(ref) << "E" << eq << " was not published";
    if (ref) out[eq] = ref.names();
  }
  return out;
}

/// True iff executing `plan` reads class `eq`'s segment: a ReadMaterialized
/// leaf or a join side input.
bool ReadsSegmentOf(const Memo& memo, const PlanNodePtr& plan, EqId eq) {
  if (plan->op == PhysOp::kReadMaterialized && memo.Find(plan->eq) == eq) {
    return true;
  }
  if (IsJoin(plan->op) && plan->children.size() == 1 &&
      memo.Find(memo.op(plan->logical_op).children[1]) == eq) {
    return true;
  }
  for (const PlanNodePtr& c : plan->children) {
    if (ReadsSegmentOf(memo, c, eq)) return true;
  }
  return false;
}

/// Runs `plan` on the vector engine through a fresh cache; returns the run
/// and fills `*stored` with each segment's columns.
ExecResult RunVectorPublishing(Memo* memo, const DataSet& data,
                               const ConsolidatedPlan& plan,
                               const ExecOptions& base,
                               std::map<EqId, std::vector<ColumnRef>>* stored) {
  SharedSegmentCache cache(MatStoreOptions{});
  ExecOptions exec = base;
  exec.shared_cache = &cache;
  auto run = ExecuteConsolidatedResult(ExecBackend::kVector, memo, &data, plan,
                                       exec);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return {};
  *stored = StoredColumns(*memo, plan, &cache);
  return std::move(run).ValueOrDie();
}

TEST(VexecNarrowTest, BatchedWorkloadsMatchRowEngineWithSegmentsAtReadersNeed) {
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 60;
  gen.domain_cap = 30;
  const DataSet data = GenerateData(catalog, gen);
  int narrowed = 0;
  for (int bq = 1; bq <= 3; ++bq) {
    Memo memo(&catalog);
    memo.InsertBatch(MakeBatchedWorkload(bq));
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    BatchOptimizer optimizer(&memo, CostModel());
    MaterializationProblem problem(&optimizer);
    for (Algorithm alg : kAllAlgorithms) {
      const ConsolidatedPlan plan =
          optimizer.Plan(RunAlgorithm(alg, &problem).materialized);
      const std::string context =
          "BQ" + std::to_string(bq) + " alg " + std::to_string(int(alg));
      auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data,
                                         plan, WithEnvStore());
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      // Each segment holds exactly the union of its readers' needs.
      const std::unordered_map<EqId, ColumnNeed> needs =
          ReaderNeeds(&memo, plan);
      std::vector<int> widths;
      for (int threads : {1, 2, 4}) {
        ExecOptions exec;
        exec.num_threads = threads;
        if (threads > 1) exec.morsel_rows = 8;
        std::map<EqId, std::vector<ColumnRef>> stored;
        ExecResult vec =
            RunVectorPublishing(&memo, data, plan, WithEnvStore(exec), &stored);
        ASSERT_EQ(vec.results.size(), row.ValueOrDie().size()) << context;
        for (size_t q = 0; q < vec.results.size(); ++q) {
          ExpectSameRows(row.ValueOrDie()[q], vec.results[q],
                         context + " q" + std::to_string(q) + " t" +
                             std::to_string(threads));
        }
        for (const auto& [eq, cols] : stored) {
          auto need = needs.find(eq);
          ASSERT_NE(need, needs.end()) << context << " E" << eq;
          EXPECT_EQ(cols, NeedAttrs(&memo, eq, need->second))
              << context << " E" << eq;
          if (threads == 1 && cols.size() < memo.Attributes(eq).size()) {
            ++narrowed;
          }
        }
        // The width each run reports is the same at every thread count.
        std::vector<int> got;
        for (const SegmentRuntime& seg : vec.segments) {
          got.push_back(seg.columns);
          EXPECT_EQ(static_cast<size_t>(seg.columns), stored[seg.eq].size());
        }
        if (widths.empty()) widths = got;
        EXPECT_EQ(got, widths) << context << " t" << threads;
      }
    }
  }
  EXPECT_GT(narrowed, 0);
}

TEST(VexecNarrowTest, MaterializedQueryRootKeepsFullWidth) {
  // Exact duplicate queries share their root class: materialized, it is
  // read as a query result, so it keeps every class attribute.
  Catalog catalog = MakeTinyCatalog();
  Memo memo(&catalog);
  memo.InsertBatch({Join12(), Join12()});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  const DataSet data = PruningData(catalog);
  const std::vector<EqId> roots = QueryRoots(memo);
  ASSERT_EQ(roots.size(), 2u);
  ASSERT_EQ(roots[0], roots[1]);
  BatchOptimizer optimizer(&memo, CostModel());
  const ConsolidatedPlan plan = optimizer.Plan({roots[0]});
  auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                     WithEnvStore());
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  std::map<EqId, std::vector<ColumnRef>> stored;
  ExecResult vec = RunVectorPublishing(&memo, data, plan, WithEnvStore(),
                                       &stored);
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[roots[0]], memo.Attributes(roots[0]));
  ASSERT_EQ(vec.results.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    ExpectSameRows(row.ValueOrDie()[q], vec.results[q],
                   "duplicate q" + std::to_string(q));
  }
}

TEST(VexecNarrowTest, AncestorNeedReachesTheDescendantSegmentItReads) {
  // J = t1 ⋈ σ(t2) and its descendant S = σ(t2) are both materialized; only
  // J's compute plan reads S. Both queries read J for t1.tag and t2.v, so S
  // must hold t2.v and the join key t2.k — not t2.tag.
  auto filtered = LogicalExpr::Select(
      LogicalExpr::Scan("t2"), Predicate({Cmp("t2", "v", CompareOp::kLe, 6)}));
  auto join = LogicalExpr::Join(LogicalExpr::Scan("t1"), filtered,
                                JoinPredicate({KeyJoin("t1", "t2")}));
  Catalog catalog = MakeTinyCatalog();
  Memo memo(&catalog);
  memo.InsertBatch(
      {LogicalExpr::Aggregate(join, {ColumnRef("t1", "tag")},
                              {Agg(AggFunc::kSum, ColumnRef("t2", "v"))}),
       LogicalExpr::Aggregate(join, {ColumnRef("t1", "tag")},
                              {Agg(AggFunc::kCount)})});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  const DataSet data = PruningData(catalog);
  const EqId s = memo.Insert(filtered);
  const EqId j = memo.Insert(join);
  BatchOptimizer optimizer(&memo, CostModel());
  const ConsolidatedPlan plan = optimizer.Plan({s, j});
  ASSERT_EQ(plan.materialized.size(), 2u);
  std::map<EqId, std::vector<ColumnRef>> stored;
  for (PhysOp join_op : {PhysOp::kBlockNLJoin, PhysOp::kMergeJoin}) {
    const ConsolidatedPlan forced = WithJoinsAs(plan, join_op);
    // Only J's compute plan reads S.
    ASSERT_FALSE(ReadsSegmentOf(memo, forced.root_plan, memo.Find(s)));
    for (const auto& m : forced.materialized) {
      EXPECT_EQ(ReadsSegmentOf(memo, m.compute_plan, memo.Find(s)),
                memo.Find(m.eq) == memo.Find(j));
    }
    auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, forced,
                                       WithEnvStore());
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ExecResult vec =
        RunVectorPublishing(&memo, data, forced, WithEnvStore(), &stored);
    EXPECT_EQ(stored[memo.Find(j)],
              (std::vector<ColumnRef>{ColumnRef("t1", "tag"),
                                      ColumnRef("t2", "v")}))
        << PhysOpToString(join_op);
    EXPECT_EQ(stored[memo.Find(s)],
              (std::vector<ColumnRef>{ColumnRef("t2", "k"),
                                      ColumnRef("t2", "v")}))
        << PhysOpToString(join_op);
    ASSERT_EQ(vec.results.size(), 2u);
    for (size_t q = 0; q < 2; ++q) {
      ExpectSameRows(row.ValueOrDie()[q], vec.results[q],
                     std::string(PhysOpToString(join_op)) + " q" +
                         std::to_string(q));
    }
  }
}

TEST(VexecNarrowTest, NarrowCacheMissWidensTheSegmentsItsComputePlanReads) {
  // Batch A caches J = t1 ⋈ σ(t2) narrowed to what its query reads. Batch B
  // (a fresh memo) materializes S = σ(t2) and J, and its query reads a J
  // column the entry lacks: J misses, its need widens to the cached columns
  // as well, and S must hold what J's widened compute plan reads.
  auto filtered = LogicalExpr::Select(
      LogicalExpr::Scan("t2"), Predicate({Cmp("t2", "v", CompareOp::kLe, 6)}));
  auto join = LogicalExpr::Join(LogicalExpr::Scan("t1"), filtered,
                                JoinPredicate({KeyJoin("t1", "t2")}));
  Catalog catalog = MakeTinyCatalog();
  const DataSet data = PruningData(catalog);
  SharedSegmentCache cache(MatStoreOptions{});
  ExecOptions exec = WithEnvStore();
  exec.shared_cache = &cache;
  {
    Memo memo(&catalog);
    memo.InsertBatch({LogicalExpr::Aggregate(
        join, {ColumnRef("t1", "tag")},
        {Agg(AggFunc::kSum, ColumnRef("t2", "v"))})});
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    BatchOptimizer optimizer(&memo, CostModel());
    const ConsolidatedPlan plan =
        optimizer.Plan({memo.Find(memo.Insert(join))});
    auto run = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                       plan, exec);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(cache.stats().inserts, 1);
  }
  Memo memo(&catalog);
  memo.InsertBatch({LogicalExpr::Aggregate(join, {ColumnRef("t2", "tag")},
                                           {Agg(AggFunc::kCount)})});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  const EqId s = memo.Find(memo.Insert(filtered));
  const EqId j = memo.Find(memo.Insert(join));
  BatchOptimizer optimizer(&memo, CostModel());
  const ConsolidatedPlan plan = optimizer.Plan({s, j});
  for (const auto& m : plan.materialized) {
    ASSERT_EQ(ReadsSegmentOf(memo, m.compute_plan, s), memo.Find(m.eq) == j);
  }
  auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                     WithEnvStore());
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  auto vec = ExecuteConsolidatedResult(ExecBackend::kVector, &memo, &data,
                                       plan, exec);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  EXPECT_EQ(vec.ValueOrDie().cross_batch_hits, 0);
  ExpectSameRows(row.ValueOrDie()[0], vec.ValueOrDie().results[0], "widened");
  EXPECT_EQ(cache.stats().narrow_misses, 1);
  EXPECT_EQ(cache.stats().widenings, 1);
  std::map<EqId, std::vector<ColumnRef>> stored =
      StoredColumns(memo, plan, &cache);
  EXPECT_EQ(stored[j],
            NeedAttrs(&memo, j,
                      {ColumnRef("t1", "tag"), ColumnRef("t2", "v"),
                       ColumnRef("t2", "tag")}));
}

TEST(VexecNarrowTest, CountStarOverMaterializedJoinSurvivesSpill) {
  // COUNT(*) over a materialized join reads none of its columns: the
  // segment holds rows and no column, and its row count must survive an
  // eviction to disk and the reload. S = σ(t1) is materialized beside it,
  // so the 1-byte budget has bytes to evict.
  auto filtered = LogicalExpr::Select(
      LogicalExpr::Scan("t1"), Predicate({Cmp("t1", "v", CompareOp::kLe, 6)}));
  auto join = LogicalExpr::Join(filtered, LogicalExpr::Scan("t2"),
                                JoinPredicate({KeyJoin("t1", "t2")}));
  Catalog catalog = MakeTinyCatalog();
  Memo memo(&catalog);
  memo.InsertBatch(
      {LogicalExpr::Aggregate(join, {}, {Agg(AggFunc::kCount)}),
       LogicalExpr::Aggregate(filtered, {ColumnRef("t1", "tag")},
                              {Agg(AggFunc::kSum, ColumnRef("t1", "v"))})});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  const DataSet data = PruningData(catalog);
  const EqId j = memo.Find(memo.Insert(join));
  const EqId s = memo.Find(memo.Insert(filtered));
  BatchOptimizer optimizer(&memo, CostModel());
  const ConsolidatedPlan plan = optimizer.Plan({s, j});
  auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan,
                                     WithEnvStore());
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row.ValueOrDie()[0].rows.size(), 1u);
  for (const ExecOptions& base : PruningConfigs()) {
    ExecOptions exec = base;
    exec.mat_budget_bytes = 1;
    auto vec = ExecuteConsolidatedResult(ExecBackend::kVector, &memo, &data,
                                         plan, WithEnvStore(exec));
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    const ExecResult& got = vec.ValueOrDie();
    ASSERT_EQ(got.results.size(), 2u);
    for (size_t q = 0; q < 2; ++q) {
      ExpectSameRows(row.ValueOrDie()[q], got.results[q],
                     "t" + std::to_string(exec.num_threads) + " q" +
                         std::to_string(q));
    }
    bool saw_join = false;
    for (const SegmentRuntime& seg : got.segments) {
      if (seg.eq != j) continue;
      saw_join = true;
      EXPECT_EQ(seg.columns, 0);
      EXPECT_GT(seg.actual_rows, 0);
      EXPECT_EQ(seg.bytes, 0);
      EXPECT_EQ(seg.reloads, 1);
    }
    EXPECT_TRUE(saw_join);
  }
}

TEST(VexecBudgetTest, FacadeStoreBudgetKeepsAnswers) {
  // exec.mat_budget_bytes governs the run's own store (eviction and spill
  // at run time); the query answers must be identical either way.
  Catalog catalog = MakeTpcdCatalog(1);
  const std::vector<std::string> batch = {
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' "
      "GROUP BY o_orderdate",
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-06-15' "
      "GROUP BY o_orderdate"};
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  auto unbudgeted = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  for (size_t budget : {size_t{1}, size_t{64 * 1024}}) {
    options.exec.mat_budget_bytes = budget;
    auto budgeted = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
    ASSERT_EQ(budgeted.ValueOrDie().results.size(), 2u);
    for (size_t q = 0; q < 2; ++q) {
      ExpectSameRows(unbudgeted.ValueOrDie().results[q],
                     budgeted.ValueOrDie().results[q],
                     "facade budget " + std::to_string(budget) + " q" +
                         std::to_string(q));
    }
  }
}

TEST(VexecBudgetTest, StoreBudgetNeverChangesThePlan) {
  // A budget lives only on a store: BQ1-BQ3 run through the facade with an
  // unlimited store and with one that spills every segment choose the same
  // materialized set at a bit-identical cost.
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 60;
  gen.domain_cap = 30;
  const DataSet data = GenerateData(catalog, gen);
  for (int bq = 1; bq <= 3; ++bq) {
    std::vector<MqoResult> results;
    for (size_t budget : {size_t{0}, size_t{1}}) {
      MqoOptions options;
      options.exec.mat_budget_bytes = budget;
      auto run = OptimizeAndExecuteBatch(catalog, MakeBatchedWorkload(bq),
                                         data, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      results.push_back(run.ValueOrDie().optimization.result);
    }
    EXPECT_EQ(results[0].materialized, results[1].materialized) << "BQ" << bq;
    EXPECT_EQ(results[0].total_cost, results[1].total_cost) << "BQ" << bq;
  }
}

// ---- Columnar format and kernel unit tests ----------------------------------

NamedRows MakeRows() {
  NamedRows rows;
  rows.columns = {ColumnRef("r", "k"), ColumnRef("r", "x"),
                  ColumnRef("r", "s")};
  rows.rows = {{Value(3.0), Value(1.5), Value("b")},
               {Value(1.0), Value(2.0), Value("a")},
               {Value(3.0), Value(-0.5), Value("c")}};
  return rows;
}

TEST(ColumnBatchTest, RoundTripPreservesValuesAndInfersTypes) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const ColumnBatch& b = batch.ValueOrDie();
  EXPECT_EQ(b.columns[0].type(), VecType::kInt64);   // 3, 1, 3 all integral
  EXPECT_EQ(b.columns[1].type(), VecType::kDouble);  // fractional
  EXPECT_EQ(b.columns[2].type(), VecType::kString);
  NamedRows back = BatchToRows(b);
  ASSERT_EQ(back.rows.size(), rows.rows.size());
  for (size_t r = 0; r < rows.rows.size(); ++r) {
    for (size_t c = 0; c < rows.columns.size(); ++c) {
      EXPECT_TRUE(ValueEq(rows.rows[r][c], back.rows[r][c]));
    }
  }
}

TEST(ColumnBatchTest, MixedTypeColumnRejected) {
  NamedRows rows;
  rows.columns = {ColumnRef("r", "bad")};
  rows.rows = {{Value(1.0)}, {Value("oops")}};
  auto batch = BatchFromRows(rows);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnimplemented);
}

TEST(VectorOpsTest, FilterMatchesRowEngineIncludingTypeMismatch) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  // k >= 2 (int fast path), x > 0 (double), s <= "b" (string).
  Predicate pred({Cmp("r", "k", CompareOp::kGe, 2),
                  Cmp("r", "x", CompareOp::kGt, 0.0),
                  Cmp("r", "s", CompareOp::kLe, "b")});
  auto expected = FilterRows(rows, pred);
  auto actual = RunFilterPipeline(batch.ValueOrDie(), pred, {});
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  NamedRows actual_rows = BatchToRows(actual.ValueOrDie());
  ASSERT_EQ(actual_rows.rows.size(), expected.ValueOrDie().rows.size());
  // Comparing a numeric column against a string literal passes nothing, on
  // both engines.
  Predicate mismatch({Cmp("r", "k", CompareOp::kEq, "3")});
  EXPECT_TRUE(FilterRows(rows, mismatch).ValueOrDie().rows.empty());
  EXPECT_EQ(
      RunFilterPipeline(batch.ValueOrDie(), mismatch, {}).ValueOrDie().num_rows,
      0u);
}

TEST(VectorOpsTest, HashJoinMatchesRowJoin) {
  NamedRows left = MakeRows();
  NamedRows right;
  right.columns = {ColumnRef("q", "k"), ColumnRef("q", "t")};
  right.rows = {{Value(3.0), Value("x")},
                {Value(2.0), Value("y")},
                {Value(3.0), Value("z")},
                {Value(1.0), Value("w")}};
  JoinPredicate pred({KeyJoin("r", "q")});
  auto expected = JoinRows(left, right, pred);
  ASSERT_TRUE(expected.ok());
  auto lb = BatchFromRows(left);
  auto rb = BatchFromRows(right);
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(rb.ok());
  auto joined = RunProbePipeline(lb.ValueOrDie(), rb.ValueOrDie(), pred, {});
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  NamedRows got = BatchToRows(joined.ValueOrDie());
  NamedRows want = expected.ValueOrDie();
  ASSERT_TRUE(Canonicalize(want.columns, &got).ok());
  NamedRows want_canon = want;
  ASSERT_TRUE(Canonicalize(want.columns, &want_canon).ok());
  ASSERT_EQ(got.rows.size(), want_canon.rows.size());
  for (size_t r = 0; r < got.rows.size(); ++r) {
    for (size_t c = 0; c < got.columns.size(); ++c) {
      EXPECT_TRUE(ValueEq(got.rows[r][c], want_canon.rows[r][c]));
    }
  }
}

TEST(VectorOpsTest, JoinWithOverlappingAliasesRejectedLikeRowEngine) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  JoinPredicate pred({KeyJoin("r", "r")});
  auto row = JoinRows(rows, rows, pred);
  ASSERT_FALSE(row.ok());
  auto probe = RunProbePipeline(batch.ValueOrDie(), batch.ValueOrDie(), pred, {});
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), row.status().code());
}

TEST(VectorOpsTest, AggregateMatchesRowEngine) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  std::vector<ColumnRef> group_by = {ColumnRef("r", "k")};
  std::vector<AggExpr> aggs = {Agg(AggFunc::kSum, ColumnRef("r", "x")),
                               Agg(AggFunc::kCount),
                               Agg(AggFunc::kMin, ColumnRef("r", "s")),
                               Agg(AggFunc::kMax, ColumnRef("r", "s")),
                               Agg(AggFunc::kAvg, ColumnRef("r", "x"))};
  auto expected = AggregateRows(rows, group_by, aggs, {});
  auto actual = RunAggPipeline(batch.ValueOrDie(), group_by, aggs, {});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  NamedRows got = BatchToRows(actual.ValueOrDie());
  NamedRows want = expected.ValueOrDie();
  ASSERT_TRUE(Canonicalize(want.columns, &got).ok());
  NamedRows want_canon = want;
  ASSERT_TRUE(Canonicalize(want.columns, &want_canon).ok());
  ASSERT_EQ(got.rows.size(), want_canon.rows.size());
  for (size_t r = 0; r < got.rows.size(); ++r) {
    for (size_t c = 0; c < got.columns.size(); ++c) {
      EXPECT_TRUE(ValueEq(got.rows[r][c], want_canon.rows[r][c]))
          << "row " << r << " col " << got.columns[c].ToString();
    }
  }
}

TEST(VectorOpsTest, ParallelHashJoinIsDeterministicAndMatchesSerial) {
  // Skewed keys (every key repeats) over enough rows for many 4-row
  // morsels. The parallel build/probe pipeline must reproduce the serial
  // output exactly — same rows in the same order, not just bag-equal.
  NamedRows left;
  left.columns = {ColumnRef("l", "k"), ColumnRef("l", "x")};
  NamedRows right;
  right.columns = {ColumnRef("r", "k"), ColumnRef("r", "y")};
  for (int i = 0; i < 100; ++i) {
    left.rows.push_back({Value(double(i % 5)), Value(double(i))});
    right.rows.push_back({Value(double(i % 7)), Value(double(-i))});
  }
  auto lb = BatchFromRows(left);
  auto rb = BatchFromRows(right);
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(rb.ok());
  JoinPredicate pred({KeyJoin("l", "r")});
  auto serial = RunProbePipeline(lb.ValueOrDie(), rb.ValueOrDie(), pred, {});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const NamedRows want = BatchToRows(serial.ValueOrDie());
  ASSERT_GT(want.rows.size(), 0u);
  for (int threads : {2, 8}) {
    ExecOptions exec;
    exec.num_threads = threads;
    exec.morsel_rows = 4;
    auto parallel =
        RunProbePipeline(lb.ValueOrDie(), rb.ValueOrDie(), pred, exec);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    const NamedRows got = BatchToRows(parallel.ValueOrDie());
    ASSERT_EQ(got.rows.size(), want.rows.size()) << threads << " threads";
    for (size_t r = 0; r < want.rows.size(); ++r) {
      for (size_t c = 0; c < want.columns.size(); ++c) {
        ASSERT_TRUE(ValueEq(got.rows[r][c], want.rows[r][c]))
            << threads << " threads, row " << r;
      }
    }
  }
}

TEST(VectorExecutorTest, ReadWithoutMaterializationFails) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  auto shareable = ShareableNodes(memo);
  ASSERT_FALSE(shareable.empty());
  DataGenOptions gen;
  gen.max_rows_per_table = 20;
  gen.seed = 5;
  DataSet data = GenerateData(catalog, gen);
  VectorPlanExecutor executor(&memo, &data, WithEnvStore());
  PlanNodePtr read = MakePlanNode(PhysOp::kReadMaterialized, shareable[0], {},
                                  1.0, "", {});
  auto result = executor.Execute(read);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace mqo
