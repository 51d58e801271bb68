// Tests of the statistics subsystem (src/stats/) and the estimation stack on
// top of it: sketch/histogram edge cases, the morsel-parallel analyze pass,
// estimation accuracy (q-error of estimated vs. actual cardinalities on the
// TPC-D and example1 workloads, in both stats modes), runtime cardinality
// feedback, and the adaptive morsel-sizing policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "catalog/tpcd.h"
#include "common/hash.h"
#include "exec/evaluator.h"
#include "exec/plan_executor.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "mqo/mqo_algorithms.h"
#include "stats/feedback.h"
#include "stats/histogram.h"
#include "stats/qerror.h"
#include "stats/sketch.h"
#include "stats/table_stats.h"
#include "storage/morsel.h"
#include "support/pipelines.h"
#include "vexec/vector_executor.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

// ---- KMV sketch -------------------------------------------------------------

TEST(KmvSketchTest, ExactBelowK) {
  KmvSketch sketch(64);
  for (int i = 0; i < 50; ++i) {
    sketch.Add(HashCombine(0xabc, static_cast<uint64_t>(i)));
    sketch.Add(HashCombine(0xabc, static_cast<uint64_t>(i)));  // duplicates
  }
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 50.0);
}

TEST(KmvSketchTest, ApproximatesLargeCardinalities) {
  KmvSketch sketch;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sketch.Add(HashCombine(0x5eed, static_cast<uint64_t>(i)));
  }
  const double est = sketch.Estimate();
  EXPECT_GT(est, n * 0.85);
  EXPECT_LT(est, n * 1.15);
}

TEST(KmvSketchTest, MergeMatchesUnionAndIsOrderIndependent) {
  KmvSketch a(32), b(32), whole(32);
  for (int i = 0; i < 40; ++i) {
    const uint64_t h = HashCombine(0x11, static_cast<uint64_t>(i));
    (i % 2 == 0 ? a : b).Add(h);
    whole.Add(h);
  }
  KmvSketch ab = a;
  ab.Merge(b);
  KmvSketch ba = b;
  ba.Merge(a);
  EXPECT_DOUBLE_EQ(ab.Estimate(), whole.Estimate());
  EXPECT_DOUBLE_EQ(ba.Estimate(), whole.Estimate());
}

// ---- Equi-depth histogram ---------------------------------------------------

TEST(HistogramTest, EmptyInputYieldsNull) {
  EXPECT_EQ(EquiDepthHistogram::Build({}, 64, 0.0), nullptr);
}

TEST(HistogramTest, SingleValueColumn) {
  std::vector<double> values(100, 7.0);
  auto h = EquiDepthHistogram::Build(values, 64, 100.0);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(h->FractionEq(7.0), 1.0);
  EXPECT_DOUBLE_EQ(h->FractionLe(7.0), 1.0);
  EXPECT_DOUBLE_EQ(h->FractionLt(7.0), 0.0);
  EXPECT_DOUBLE_EQ(h->FractionLe(6.9), 0.0);
  EXPECT_DOUBLE_EQ(h->FractionBetween(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(h->TotalDistinct(), 1.0);
}

TEST(HistogramTest, AllDistinctUniformValues) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  auto h = EquiDepthHistogram::Build(values, 64, 1000.0);
  ASSERT_NE(h, nullptr);
  EXPECT_NEAR(h->FractionLe(499.0), 0.5, 0.05);
  EXPECT_NEAR(h->FractionEq(500.0), 1.0 / 1000.0, 0.002);
  EXPECT_NEAR(h->FractionBetween(250.0, 749.0), 0.5, 0.05);
  EXPECT_NEAR(h->TotalDistinct(), 1000.0, 1.0);
  EXPECT_NEAR(h->DistinctBetween(0.0, 499.0), 500.0, 32.0);
  EXPECT_DOUBLE_EQ(h->FractionLe(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h->FractionLe(1e9), 1.0);
  // Lt at the domain minimum: the Eq point mass must not drive it negative.
  EXPECT_GE(h->FractionLt(h->min_value()), 0.0);
  EXPECT_DOUBLE_EQ(h->FractionLt(-1.0), 0.0);
}

TEST(HistogramTest, HeavyHitterStaysInOneBucket) {
  // 900 copies of 5 among 100 distinct others: FractionEq(5) must reflect
  // the skew instead of an average bucket depth.
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(5.0);
  for (int i = 0; i < 100; ++i) values.push_back(1000.0 + i);
  std::sort(values.begin(), values.end());
  auto h = EquiDepthHistogram::Build(values, 16, 1000.0);
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->FractionEq(5.0), 0.4);
  EXPECT_LT(h->FractionEq(1000.0), 0.05);
}

TEST(HistogramTest, ClipRenormalizesAndScalesTotals) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  auto h = EquiDepthHistogram::Build(values, 64, 1000.0);
  ASSERT_NE(h, nullptr);
  auto clipped = h->Clip(250.0, 499.0);
  ASSERT_NE(clipped, nullptr);
  EXPECT_NEAR(clipped->total_rows(), 250.0, 25.0);
  EXPECT_NEAR(clipped->FractionLe(374.0), 0.5, 0.1);  // midpoint of the clip
  EXPECT_DOUBLE_EQ(clipped->FractionLe(499.0), 1.0);
  EXPECT_GE(clipped->min_value(), 250.0 - 16.0);
  EXPECT_LE(clipped->max_value(), 499.0);
  // A clip outside the domain has no surviving rows.
  EXPECT_EQ(h->Clip(2000.0, 3000.0), nullptr);
  EXPECT_EQ(h->Clip(10.0, 5.0), nullptr);
}

// ---- AnalyzeTable -----------------------------------------------------------

ColumnStore MakeSmallStore() {
  ColumnVector k(VecType::kInt64);
  k.ints() = {1, 2, 2, 3};
  ColumnVector x(VecType::kDouble);
  x.doubles() = {0.5, -1.5, 2.0, 2.0};
  ColumnVector s(VecType::kString);
  s.strings() = {"aa", "b", "aa", "cccc"};
  ColumnStore store;
  EXPECT_TRUE(store.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(store.AddColumn("x", std::move(x)).ok());
  EXPECT_TRUE(store.AddColumn("s", std::move(s)).ok());
  return store;
}

TEST(AnalyzeTableTest, ExactOnSmallTable) {
  TableStatsData stats = AnalyzeTable(MakeSmallStore());
  EXPECT_DOUBLE_EQ(stats.row_count, 4.0);
  const ColumnStatsData* k = stats.Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_TRUE(k->numeric);
  EXPECT_DOUBLE_EQ(k->min_value, 1.0);
  EXPECT_DOUBLE_EQ(k->max_value, 3.0);
  EXPECT_DOUBLE_EQ(k->distinct, 3.0);
  ASSERT_NE(k->histogram, nullptr);
  EXPECT_DOUBLE_EQ(k->histogram->FractionEq(2.0), 0.5);
  const ColumnStatsData* x = stats.Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_DOUBLE_EQ(x->min_value, -1.5);
  EXPECT_DOUBLE_EQ(x->max_value, 2.0);
  EXPECT_DOUBLE_EQ(x->distinct, 3.0);
  const ColumnStatsData* s = stats.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->numeric);
  EXPECT_EQ(s->histogram, nullptr);
  EXPECT_DOUBLE_EQ(s->distinct, 3.0);
  EXPECT_NEAR(s->avg_width_bytes, 9.0 / 4.0, 1e-9);  // "aa","b","aa","cccc"
  EXPECT_EQ(stats.Find("nope"), nullptr);
}

TEST(AnalyzeTableTest, EmptyTable) {
  ColumnStore store;
  EXPECT_TRUE(store.AddColumn("k", ColumnVector(VecType::kInt64)).ok());
  TableStatsData stats = AnalyzeTable(store);
  EXPECT_DOUBLE_EQ(stats.row_count, 0.0);
  const ColumnStatsData* k = stats.Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_DOUBLE_EQ(k->distinct, 0.0);
  EXPECT_EQ(k->histogram, nullptr);
}

ColumnStore MakeBigStore(int n) {
  Rng rng(99);
  ColumnVector k(VecType::kInt64);
  ColumnVector x(VecType::kDouble);
  for (int i = 0; i < n; ++i) {
    k.ints().push_back(rng.NextInt(500));
    x.doubles().push_back(static_cast<double>(rng.NextInt(10000)));
  }
  ColumnStore store;
  EXPECT_TRUE(store.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(store.AddColumn("x", std::move(x)).ok());
  return store;
}

TEST(AnalyzeTableTest, DeterministicAcrossThreadCounts) {
  ColumnStore store = MakeBigStore(20000);
  AnalyzeOptions serial;
  serial.num_threads = 1;
  AnalyzeOptions parallel;
  parallel.num_threads = 4;
  TableStatsData a = AnalyzeTable(store, serial);
  TableStatsData b = AnalyzeTable(store, parallel);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.columns[c].distinct, b.columns[c].distinct);
    EXPECT_DOUBLE_EQ(a.columns[c].min_value, b.columns[c].min_value);
    EXPECT_DOUBLE_EQ(a.columns[c].max_value, b.columns[c].max_value);
    ASSERT_EQ(a.columns[c].histogram != nullptr,
              b.columns[c].histogram != nullptr);
    if (a.columns[c].histogram != nullptr) {
      ASSERT_EQ(a.columns[c].histogram->num_buckets(),
                b.columns[c].histogram->num_buckets());
      for (size_t i = 0; i < a.columns[c].histogram->num_buckets(); ++i) {
        EXPECT_DOUBLE_EQ(a.columns[c].histogram->buckets()[i].lo,
                         b.columns[c].histogram->buckets()[i].lo);
        EXPECT_DOUBLE_EQ(a.columns[c].histogram->buckets()[i].fraction,
                         b.columns[c].histogram->buckets()[i].fraction);
      }
    }
  }
}

TEST(AnalyzeTableTest, SampledHistogramStillTracksTheCdf) {
  ColumnStore store = MakeBigStore(20000);
  AnalyzeOptions options;
  options.sample_target = 128;  // force the stride-sampling path
  TableStatsData stats = AnalyzeTable(store, options);
  const ColumnStatsData* x = stats.Find("x");
  ASSERT_NE(x, nullptr);
  ASSERT_NE(x->histogram, nullptr);
  // Uniform [0, 10000): the sampled CDF must stay close to the truth.
  EXPECT_NEAR(x->histogram->FractionLe(5000.0), 0.5, 0.1);
  EXPECT_NEAR(x->histogram->FractionLe(2500.0), 0.25, 0.1);
}

TEST(AnalyzeTableTest, SampledHistogramDistinctsScaleToTheSketch) {
  // 20000 rows, ~8600 true distincts in x, 500 in k, but a 128-value sample
  // sees at most 128: bucket distinct counts must rescale to the sketch's
  // column-level estimate, or join-overlap divisors and equality
  // selectivities degrade by the sampling ratio on high-cardinality columns.
  ColumnStore store = MakeBigStore(20000);
  AnalyzeOptions options;
  options.sample_target = 128;
  TableStatsData stats = AnalyzeTable(store, options);
  const ColumnStatsData* x = stats.Find("x");
  ASSERT_NE(x, nullptr);
  ASSERT_NE(x->histogram, nullptr);
  EXPECT_NEAR(x->histogram->TotalDistinct(), x->distinct, 0.25 * x->distinct);
  EXPECT_GT(x->histogram->TotalDistinct(), 4000.0);
  const ColumnStatsData* k = stats.Find("k");
  ASSERT_NE(k, nullptr);
  ASSERT_NE(k->histogram, nullptr);
  // Low-cardinality columns must not over-inflate.
  EXPECT_NEAR(k->histogram->TotalDistinct(), k->distinct, 0.35 * k->distinct);
}

TEST(TableStatsRegistryTest, LazyAnalyzeInvalidateAndRebind) {
  Catalog catalog = MakeExample1Catalog();
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  DataSet data = GenerateData(catalog, gen);
  TableStatsRegistry registry(&data);
  EXPECT_EQ(registry.num_analyzed(), 0u);
  std::shared_ptr<const TableStatsData> a = registry.Get("A");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->row_count, 30.0);
  EXPECT_EQ(registry.num_analyzed(), 1u);
  EXPECT_EQ(registry.Get("A"), a);  // cached, not re-analyzed
  EXPECT_EQ(registry.num_analyzed(), 1u);
  EXPECT_EQ(registry.Get("no_such_table"), nullptr);
  registry.Invalidate("A");
  EXPECT_EQ(registry.num_analyzed(), 0u);
  // A holder keeps the dropped statistics alive; the next Get re-analyzes.
  EXPECT_DOUBLE_EQ(a->row_count, 30.0);
  ASSERT_NE(registry.Get("A"), nullptr);
  EXPECT_NE(registry.Get("A"), a);
  registry.BindData(&data);  // regeneration hook drops everything
  EXPECT_EQ(registry.num_analyzed(), 0u);
  TableStatsRegistry unbound;
  EXPECT_EQ(unbound.Get("A"), nullptr);
}

// ---- Estimation accuracy (q-error) ------------------------------------------

void CheckCollectedBeatsGuess(Memo* memo, const DataGenOptions& gen) {
  DataSet data = GenerateData(*memo->catalog(), gen);
  TableStatsRegistry registry(&data);
  StatsOptions guess_opts;
  guess_opts.mode = StatsMode::kCatalogGuess;
  StatsEstimator guess(memo, guess_opts);
  StatsOptions collected_opts;
  collected_opts.mode = StatsMode::kCollected;
  collected_opts.table_stats = &registry;
  StatsEstimator collected(memo, collected_opts);
  ASSERT_EQ(collected.mode(), StatsMode::kCollected);

  QErrors g = ComputeQErrors(memo, data, &guess);
  QErrors c = ComputeQErrors(memo, data, &collected);
  ASSERT_FALSE(g.scans.empty());

  // Collected base-table cardinalities are exact (no sampling at this size).
  for (double q : c.scans) EXPECT_DOUBLE_EQ(q, 1.0);
  // Data-driven estimates must beat the catalog guesses end to end.
  EXPECT_LT(Median(c.All()), Median(g.All()));
  if (!g.filters.empty()) {
    EXPECT_LE(Median(c.filters), Median(g.filters));
  }
  if (!g.joins.empty()) {
    EXPECT_LE(Median(c.joins), Median(g.joins));
  }
}

TEST(QErrorTest, CollectedBeatsGuessOnTpcdQ3Variants) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ3(0), MakeQ3(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 77;
  CheckCollectedBeatsGuess(&memo, gen);
}

TEST(QErrorTest, CollectedBeatsGuessOnTpcdQ9Variants) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 50;
  gen.domain_cap = 25;
  gen.seed = 77;
  CheckCollectedBeatsGuess(&memo, gen);
}

TEST(QErrorTest, CollectedBeatsGuessOnExample1) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  gen.seed = 77;
  CheckCollectedBeatsGuess(&memo, gen);
}

TEST(StatsModeTest, CatalogGuessIgnoresTheRegistry) {
  // Supplying a registry must not change kCatalogGuess estimates: the paper
  // path stays bit-for-bit comparable.
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ3(0), MakeQ3(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.seed = 7;
  DataSet data = GenerateData(catalog, gen);
  TableStatsRegistry registry(&data);
  StatsEstimator plain(&memo);
  StatsOptions opts;
  opts.mode = StatsMode::kCatalogGuess;
  opts.table_stats = &registry;
  StatsEstimator with_registry(&memo, opts);
  for (EqId eq : memo.AllClasses()) {
    EXPECT_DOUBLE_EQ(plain.ClassStats(eq).rows,
                     with_registry.ClassStats(eq).rows)
        << "class E" << eq;
  }
}

TEST(StatsModeTest, CollectedWithoutRegistryDegradesToGuess) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  StatsOptions opts;
  opts.mode = StatsMode::kCollected;
  StatsEstimator est(&memo, opts);
  EXPECT_EQ(est.mode(), StatsMode::kCatalogGuess);
}

// ---- Cardinality feedback ---------------------------------------------------

TEST(FeedbackTest, FingerprintsAreStableAcrossMemoRebuilds) {
  Catalog catalog = MakeExample1Catalog();
  Memo first(&catalog);
  first.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&first).ok());
  Memo second(&catalog);
  second.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&second).ok());
  std::unordered_map<EqId, uint64_t> cache1, cache2;
  // Same logical batch, fresh memo: every shareable node must hash the same.
  std::vector<uint64_t> fp1, fp2;
  for (EqId e : ShareableNodes(first)) {
    fp1.push_back(ClassFingerprint(first, e, &cache1));
  }
  for (EqId e : ShareableNodes(second)) {
    fp2.push_back(ClassFingerprint(second, e, &cache2));
  }
  std::sort(fp1.begin(), fp1.end());
  std::sort(fp2.begin(), fp2.end());
  EXPECT_EQ(fp1, fp2);
  ASSERT_FALSE(fp1.empty());
  EXPECT_TRUE(std::adjacent_find(fp1.begin(), fp1.end()) == fp1.end())
      << "distinct shareable nodes collided";
}

// The fingerprint hashes a literal's value, not its display: 96.99955 and
// 97.00045 both print as 97.000, yet select different rows.
TEST(FeedbackTest, DisplayEqualConstantsGetDifferentFingerprints) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  auto select_below = [&](double bound) {
    const Comparison c{ColumnRef("A", "k"), CompareOp::kLt, Literal(bound)};
    return memo.Insert(NormalizeTree(
        LogicalExpr::Select(LogicalExpr::Scan("A"), Predicate({c}))));
  };
  const EqId low = select_below(96.99955);
  const EqId high = select_below(97.00045);
  ASSERT_NE(memo.Find(low), memo.Find(high));
  ASSERT_EQ(Literal(96.99955).ToString(), Literal(97.00045).ToString());
  std::unordered_map<EqId, uint64_t> cache;
  EXPECT_NE(ClassFingerprint(memo, low, &cache),
            ClassFingerprint(memo, high, &cache));
}

TEST(FeedbackTest, BothEnginesRecordIdenticalObservations) {
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

  PlanExecutor row(&memo, &data);
  VectorPlanExecutor vec(&memo, &data);
  ASSERT_TRUE(row.ExecuteConsolidated(plan).ok());
  ASSERT_TRUE(vec.ExecuteConsolidated(plan).ok());
  EXPECT_EQ(row.feedback().size(), result.materialized.size());
  ASSERT_EQ(row.feedback().size(), vec.feedback().size());
  for (const auto& [fp, rows] : row.feedback().observations()) {
    const double* other = vec.feedback().Find(fp);
    ASSERT_NE(other, nullptr);
    EXPECT_DOUBLE_EQ(rows, *other);
  }
}

TEST(FeedbackTest, ObservedRowsOverrideEstimatesAndShrinkFootprints) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  gen.seed = 77;
  DataSet data = GenerateData(catalog, gen);
  BatchOptimizer before(&memo, CostModel());
  MaterializationProblem problem(&before);
  MqoResult result = RunGreedy(&problem);
  ASSERT_FALSE(result.materialized.empty());
  ConsolidatedPlan plan = before.Plan(result.materialized);
  VectorPlanExecutor executor(&memo, &data);
  ASSERT_TRUE(executor.ExecuteConsolidated(plan).ok());

  BatchOptimizerOptions with_feedback;
  with_feedback.stats.feedback = &executor.feedback();
  BatchOptimizer after(&memo, CostModel(), with_feedback);
  std::unordered_map<EqId, uint64_t> cache;
  for (EqId e : result.materialized) {
    const double* observed =
        executor.feedback().Find(ClassFingerprint(memo, e, &cache));
    ASSERT_NE(observed, nullptr);
    // The re-seeded estimator reports exactly the observed cardinality...
    EXPECT_DOUBLE_EQ(after.stats()->ClassStats(e).rows,
                     std::max(1.0, *observed));
    // ...so the estimated segment footprint shrinks from the catalog guess
    // to data scale.
    EXPECT_LT(after.MatFootprintBytes(e), before.MatFootprintBytes(e));
  }
  // The guess-mode estimate of the same nodes was wildly larger (800k-row
  // catalog vs. 40 generated rows), so the expected-read weights the
  // executors seed MatStore with now describe reality.
  const auto reads = ExpectedSegmentReads(memo, plan);
  EXPECT_FALSE(reads.empty());
}

TEST(FeedbackTest, SessionSecondBatchReusesStatsAndKeepsAnswers) {
  Catalog catalog = MakeTpcdCatalog(1);
  // The Q9 constant-variant pair: its shared join subexpression is known to
  // materialize under the catalog-guess economics (see examples/run_plans).
  const std::vector<LogicalExprPtr> batch = {MakeQ9(0), MakeQ9(1)};
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  options.stats_mode = StatsMode::kCatalogGuess;  // guarantees materialization
  MqoSession session(&catalog, &data, options);
  auto first = session.Run(batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first.ValueOrDie().optimization.result.num_materialized, 0);
  EXPECT_FALSE(session.feedback().empty());

  auto second = session.Run(batch);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Feedback re-seeds estimates; answers must not move.
  ASSERT_EQ(first.ValueOrDie().results.size(),
            second.ValueOrDie().results.size());
  for (size_t q = 0; q < first.ValueOrDie().results.size(); ++q) {
    const NamedRows& a = first.ValueOrDie().results[q];
    const NamedRows& b = second.ValueOrDie().results[q];
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t r = 0; r < a.rows.size(); ++r) {
      for (size_t c = 0; c < a.columns.size(); ++c) {
        EXPECT_TRUE(ValueEq(a.rows[r][c], b.rows[r][c]));
      }
    }
  }
  session.InvalidateStats();
  EXPECT_TRUE(session.feedback().empty());
}

TEST(FeedbackTest, CollectedSessionAnalyzesLazilyAndOnce) {
  Catalog catalog = MakeTpcdCatalog(1);
  const std::vector<std::string> batch = {
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' "
      "GROUP BY o_orderdate"};
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.stats_mode = StatsMode::kCollected;
  MqoSession session(&catalog, &data, options);
  auto outcome = session.Run(batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.ValueOrDie().optimization.stats_mode,
            StatsMode::kCollected);
  // Only the two touched tables analyzed, lazily.
  EXPECT_EQ(session.table_stats().num_analyzed(), 2u);
  auto again = session.Run(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session.table_stats().num_analyzed(), 2u);  // cached, not re-run
}

// ---- Adaptive morsel sizing -------------------------------------------------

TEST(MorselSizingTest, AdaptiveClampsAndScales) {
  EXPECT_EQ(AdaptiveMorselRows(0, 1), kMinMorselRows);
  EXPECT_EQ(AdaptiveMorselRows(100, 8), kMinMorselRows);
  EXPECT_EQ(AdaptiveMorselRows(100000, 4),
            100000u / (4 * kMorselsPerWorkerTarget));
  EXPECT_EQ(AdaptiveMorselRows(100 * 1000 * 1000, 2), kMaxMorselRows);
  // Workers clamp at 1: a serial scan still chunks (cache-sized granules).
  EXPECT_EQ(AdaptiveMorselRows(1 << 20, 0), AdaptiveMorselRows(1 << 20, 1));
}

TEST(MorselSizingTest, ResolvePassesExplicitGranulesThrough) {
  EXPECT_EQ(ResolveMorselRows(1 << 20, 8, 16), 16u);
  EXPECT_EQ(ResolveMorselRows(1 << 20, 8, kAdaptiveMorselRows),
            AdaptiveMorselRows(1 << 20, 8));
  EXPECT_EQ(ResolveMorselRows(1 << 20, 1, kAdaptiveMorselRows),
            AdaptiveMorselRows(1 << 20, 1));
}

TEST(MorselSizingTest, AdaptiveFilterMatchesFixedGranule) {
  NamedRows rows;
  rows.columns = {ColumnRef("t", "k")};
  for (int i = 0; i < 5000; ++i) {
    rows.rows.push_back({Value(static_cast<double>(i % 97))});
  }
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  Comparison cmp;
  cmp.column = ColumnRef("t", "k");
  cmp.op = CompareOp::kLt;
  cmp.literal = Literal(50.0);
  Predicate pred({cmp});
  ExecOptions exec;
  exec.num_threads = 4;
  auto adaptive = RunFilterPipeline(batch.ValueOrDie(), pred, exec);
  exec.morsel_rows = 64;
  auto fixed = RunFilterPipeline(batch.ValueOrDie(), pred, exec);
  ASSERT_TRUE(fixed.ok());
  ASSERT_TRUE(adaptive.ok());
  ASSERT_EQ(fixed.ValueOrDie().num_rows, adaptive.ValueOrDie().num_rows);
  for (size_t r = 0; r < fixed.ValueOrDie().num_rows; ++r) {
    EXPECT_EQ(fixed.ValueOrDie().columns[0].ints()[r],
              adaptive.ValueOrDie().columns[0].ints()[r]);
  }
}

}  // namespace
}  // namespace mqo
