// E-opt — optimizer scalability: parallel + cone-scoped incremental
// marginal-gain evaluation on generated thousand-query batches.
//
// Sweeps batch size × {full, cone} re-costing × {eager, lazy} greedy ×
// thread count over a generated TPC-D workload (three query templates whose
// selection constants cycle over a modulus that grows with the batch, so the
// batch has both exact duplicates and distinct-but-overlapping queries, like
// a real dashboard burst). Every configuration must pick the same
// materialized set at the same cost — the levers are work-savers, not
// heuristics — and the bench exits non-zero if any run disagrees.
//
//   wall_ms       — optimization wall clock (decomposition + greedy).
//   optimizations — bc() cache misses (distinct sets actually searched).
//   costings      — operator costings across those searches: the work proxy
//                   that cone-scoping must shrink (and that stays flat
//                   across thread counts — parallelism moves the same work,
//                   it never adds any).
//   allocs        — heap allocations (global operator new calls) during
//                   the greedy run: an exact work counter for the
//                   allocation-lean evaluation path (serial runs repeat it
//                   exactly; parallel runs add the worker pool's own).
//
// Usage: bench_optimizer [batch_size ...]   (default: 100 400 1200; pass
// tiny sizes, e.g. `bench_optimizer 8 16`, for CI smoke runs). Writes
// machine-readable records to BENCH_optimizer.json.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util/bench_args.h"
#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"

using namespace mqo;

namespace {

/// Heap allocations made through the global operator new, any thread.
std::atomic<int64_t> g_allocs{0};

}  // namespace

// Counting replacements of the global allocation functions. Kept out of
// line so the compiler pairs inlined allocations with these deletes rather
// than with the free() inside them.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

ColumnRef Col(const std::string& alias, const std::string& name) {
  return ColumnRef(alias, name);
}

Comparison Cmp(const std::string& alias, const std::string& name,
               CompareOp op, Literal lit) {
  Comparison c;
  c.column = Col(alias, name);
  c.op = op;
  c.literal = std::move(lit);
  return c;
}

JoinCondition On(const std::string& la, const std::string& ln,
                 const std::string& ra, const std::string& rn) {
  JoinCondition c;
  c.left = Col(la, ln);
  c.right = Col(ra, rn);
  return c;
}

LogicalExprPtr JoinOn(LogicalExprPtr l, LogicalExprPtr r,
                      std::vector<JoinCondition> conds) {
  return LogicalExpr::Join(std::move(l), std::move(r),
                           JoinPredicate(std::move(conds)));
}

LogicalExprPtr Where(LogicalExprPtr child, std::vector<Comparison> conjuncts) {
  return LogicalExpr::Select(std::move(child), Predicate(std::move(conjuncts)));
}

AggExpr Sum(const std::string& alias, const std::string& name) {
  AggExpr a;
  a.func = AggFunc::kSum;
  a.arg = Col(alias, name);
  return a;
}

/// The filtered orders ⋈ lineitem core for date-window k — the
/// constant-dependent common subexpression the window's queries share.
LogicalExprPtr FilteredOrderLineitem(double date) {
  auto tree = JoinOn(LogicalExpr::Scan("orders"), LogicalExpr::Scan("lineitem"),
                     {On("orders", "o_orderkey", "lineitem", "l_orderkey")});
  return Where(std::move(tree),
               {Cmp("orders", "o_orderdate", CompareOp::kGe, date),
                Cmp("orders", "o_orderdate", CompareOp::kLt, date + 90.0)});
}

/// The filtered lineitem scan for date-window k (the Q6 core).
LogicalExprPtr FilteredLineitem(double date) {
  return Where(LogicalExpr::Scan("lineitem"),
               {Cmp("lineitem", "l_shipdate", CompareOp::kGe, date),
                Cmp("lineitem", "l_shipdate", CompareOp::kLt, date + 365.0)});
}

/// Query i of a generated batch: four TPC-D-shaped templates per date
/// window. Templates 0/1 share that window's filtered orders ⋈ lineitem
/// core and templates 2/3 its filtered lineitem scan, so every window adds
/// fresh shareable classes — the candidate universe grows with the batch
/// (more distinct windows) while queries inside a window overlap, like a
/// dashboard burst refreshing the same reporting period.
LogicalExprPtr MakeGeneratedQuery(int i, int window_modulus) {
  const double base = static_cast<double>(DateToDays("1994-01-01"));
  const double date = base + 30.0 * ((i / 4) % window_modulus);
  switch (i % 4) {
    case 0:
      // Revenue per customer key over the window.
      return LogicalExpr::Aggregate(FilteredOrderLineitem(date),
                                    {Col("orders", "o_custkey")},
                                    {Sum("lineitem", "l_extendedprice")});
    case 1: {
      // The same windowed core joined up to customer, grouped differently
      // (Q3/Q10 flavor).
      auto tree = JoinOn(FilteredOrderLineitem(date),
                         LogicalExpr::Scan("customer"),
                         {On("orders", "o_custkey", "customer", "c_custkey")});
      return LogicalExpr::Aggregate(
          std::move(tree), {Col("lineitem", "l_orderkey")},
          {Sum("lineitem", "l_extendedprice")});
    }
    case 2:
      // Q6 shape: selective scalar aggregate over the windowed lineitem.
      return LogicalExpr::Aggregate(
          Where(FilteredLineitem(date),
                {Cmp("lineitem", "l_quantity", CompareOp::kLt, 24.0)}),
          {}, {Sum("lineitem", "l_extendedprice")});
    default: {
      // The windowed lineitem joined to supplier (Q9 flavor).
      auto tree = JoinOn(FilteredLineitem(date), LogicalExpr::Scan("supplier"),
                         {On("lineitem", "l_suppkey", "supplier", "s_suppkey")});
      return LogicalExpr::Aggregate(std::move(tree),
                                    {Col("supplier", "s_nationkey")},
                                    {Sum("lineitem", "l_extendedprice")});
    }
  }
}

std::vector<LogicalExprPtr> MakeGeneratedBatch(int batch_size) {
  // ~8 queries per distinct window: each window's 4 templates appear about
  // twice, so the batch mixes exact duplicates with overlapping variants.
  const int modulus = std::max(2, batch_size / 8);
  std::vector<LogicalExprPtr> queries;
  queries.reserve(batch_size);
  for (int i = 0; i < batch_size; ++i) {
    queries.push_back(MakeGeneratedQuery(i, modulus));
  }
  return queries;
}

struct RunConfig {
  bool cone = false;   // cone-scoped incremental overlay vs fresh full search
  bool lazy = false;   // lazy (wave) vs eager greedy
  int threads = 1;
};

struct RunResult {
  MqoResult mqo;
  int64_t costings = 0;
  int64_t allocs = 0;
  int universe = 0;
};

RunResult RunOne(Memo* memo, const RunConfig& cfg) {
  BatchOptimizerOptions opt;
  // "full" = every bc() runs a fresh whole-memo search (the paper's baseline
  // oracle); "cone" = overlay the pinned base and re-cost only the toggled
  // candidate's ancestor cone. Costings drop by the cone/memo ratio.
  opt.incremental = cfg.cone;
  opt.num_threads = cfg.threads;
  BatchOptimizer optimizer(memo, CostModel(), opt);
  MaterializationProblem problem(&optimizer);
  MarginalGreedyMqoOptions greedy;
  greedy.decomposition = DecompositionKind::kUseBenefit;
  greedy.lazy = cfg.lazy;
  const int64_t costings_before = optimizer.num_costings();
  RunResult r;
  const int64_t allocs_before = g_allocs.load();
  r.mqo = RunMarginalGreedy(&problem, greedy);
  r.allocs = g_allocs.load() - allocs_before;
  r.costings = optimizer.num_costings() - costings_before;
  r.universe = problem.universe_size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<int> batch_sizes =
      ParseRowCounts(argc, argv, {100, 400, 1200});
  std::printf("=== E-opt: optimizer scalability "
              "(parallel + cone-scoped evaluation) ===\n\n");
  TablePrinter table({"batch", "shareable", "mode", "greedy", "threads",
                      "wall ms", "opts", "costings", "evals", "allocs",
                      "same set"});
  BenchJsonWriter json;
  int failures = 0;

  for (int batch : batch_sizes) {
    Catalog catalog = MakeTpcdCatalog(1);
    Memo memo(&catalog);
    memo.InsertBatch(MakeGeneratedBatch(batch));
    auto expanded = ExpandMemo(&memo);
    if (!expanded.ok()) {
      std::fprintf(stderr, "expansion failed: %s\n",
                   expanded.status().ToString().c_str());
      return 1;
    }

    // Serial full/cone × eager/lazy, then the thread sweep. The serial
    // cone-vs-full pair is the incremental-re-costing ablation; the sweep
    // rows are the parallel one. The fresh-search baseline's work grows
    // roughly cubically with the batch, so past these cutoffs its rows are
    // skipped (announced below, never silently): full-lazy serial survives
    // to the largest batch as the baseline of record, and the thread sweep
    // runs on the cone mode that a large batch would actually ship with.
    const bool full_eager_ok = batch <= 256;
    const bool full_parallel_ok = batch <= 128;
    std::vector<RunConfig> configs;
    for (bool lazy : {false, true}) {
      if (lazy || full_eager_ok) {
        configs.push_back({/*cone=*/false, lazy, /*threads=*/1});
      }
      configs.push_back({/*cone=*/true, lazy, /*threads=*/1});
    }
    for (int threads : BenchThreadSweep()) {
      if (threads == 1) continue;
      for (bool lazy : {false, true}) {
        if (full_parallel_ok) configs.push_back({/*cone=*/false, lazy, threads});
        configs.push_back({/*cone=*/true, lazy, threads});
      }
    }
    if (!full_eager_ok) {
      std::printf("batch %d: skipping full-mode eager%s rows "
                  "(fresh-search baseline is O(batch^3); "
                  "full-lazy serial kept as baseline)\n",
                  batch, full_parallel_ok ? "" : " and full-mode parallel");
    }

    const MqoResult* reference = nullptr;
    std::vector<RunResult> results;
    results.reserve(configs.size());
    for (const RunConfig& cfg : configs) {
      results.push_back(RunOne(&memo, cfg));
      const RunResult& r = results.back();
      if (reference == nullptr) reference = &results.front().mqo;
      const bool same = r.mqo.materialized == reference->materialized &&
                        std::abs(r.mqo.total_cost - reference->total_cost) <
                            1e-6 * std::max(1.0, reference->total_cost);
      if (!same) ++failures;
      const std::string mode = cfg.cone ? "cone" : "full";
      const std::string greedy = cfg.lazy ? "lazy" : "eager";
      table.AddRow({std::to_string(batch), std::to_string(r.universe), mode,
                    greedy, std::to_string(cfg.threads),
                    FormatDouble(r.mqo.optimization_time_ms, 1),
                    std::to_string(r.mqo.optimizations),
                    std::to_string(r.costings),
                    std::to_string(r.mqo.function_evals),
                    std::to_string(r.allocs), same ? "yes" : "NO"});
      json.AddRecord({JStr("bench", "optimizer"),
                      JNum("batch_size", batch),
                      JNum("shareable", r.universe),
                      JStr("mode", mode), JStr("greedy", greedy),
                      JNum("threads", cfg.threads),
                      JNum("wall_ms", r.mqo.optimization_time_ms),
                      JNum("optimizations",
                           static_cast<double>(r.mqo.optimizations)),
                      JNum("costings", static_cast<double>(r.costings)),
                      JNum("function_evals",
                           static_cast<double>(r.mqo.function_evals)),
                      JNum("allocs", static_cast<double>(r.allocs)),
                      JNum("num_materialized", r.mqo.num_materialized),
                      JNum("total_cost", r.mqo.total_cost),
                      JNum("same_set", same ? 1.0 : 0.0)});
    }
  }

  table.Print();
  const bool wrote = json.WriteFile("BENCH_optimizer.json");
  std::printf("\nBENCH_optimizer.json: %s (%zu records)\n",
              wrote ? "written" : "WRITE FAILED", json.num_records());
  std::printf("identical materialized sets across all configs: %s "
              "(%d violations)\n",
              failures == 0 ? "OK" : "VIOLATED", failures);
  return failures == 0 && wrote ? 0 : 1;
}
