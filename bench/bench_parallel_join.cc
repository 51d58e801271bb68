// Thread-scaling of the parallel hash join and the pipelined engine.
//
// Four surfaces, swept over threads (1/2/4, plus hardware-max for the
// first and last):
//   1. kernel: HashJoinBatch on lineitem ⋈ orders (parallel CSR build —
//      one worker per hash partition of the bucket directory — plus a
//      morsel-parallel probe) — the isolated operator curve;
//   2. build: JoinHashTable::Build on orders alone — the hash, count and
//      scatter phases without the probe;
//   3. duplicate-heavy keys: a synthetic build side with 16 distinct keys
//      (each repeated rows/16 times) probed by 64 rows, half of them
//      misses;
//   4. engine: the consolidated TPC-D Q9 batch on the vectorized backend —
//      join build/probe and aggregation pipelines end-to-end, the
//      configuration whose sharing wins the MQO layer proves.
// Every parallel run is checked row-identical to the serial run (the
// pipeline driver's determinism contract), and all records land in
// BENCH_parallel_join.json.
//
// Usage: bench_parallel_join [rows_per_table ...]   (default: 2000 8000;
// pass tiny counts for CI smoke runs).

#include <algorithm>
#include <cstdio>

#include "bench_util/bench_args.h"
#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "storage/table_reader.h"
#include "vexec/backend.h"
#include "vexec/join_table.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

int main(int argc, char** argv) {
  std::printf("=== parallel join + pipelined engine thread scaling ===\n\n");
  const std::vector<int> row_counts = ParseRowCounts(argc, argv, {2000, 8000});

  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  auto expanded = ExpandMemo(&memo);
  if (!expanded.ok()) {
    std::printf("expansion failed: %s\n", expanded.status().ToString().c_str());
    return 1;
  }
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  MqoResult marginal = RunMarginalGreedy(&problem);
  const ConsolidatedPlan mqo_plan = optimizer.Plan(marginal.materialized);

  TablePrinter table({"rows/table", "surface", "threads", "time (ms)",
                      "speedup vs 1T"});
  BenchJsonWriter json;
  constexpr int kReps = 3;
  int failures = 0;
  for (int rows_per_table : row_counts) {
    DataGenOptions gen;
    gen.max_rows_per_table = rows_per_table;
    gen.domain_cap = std::max(1, rows_per_table / 4);
    gen.seed = 2026;
    DataSet data = GenerateData(catalog, gen);

    // Surface 1: the join kernel on the two largest relations.
    const ColumnBatch lineitem =
        TableReader(data.GetTable("lineitem").ValueOrDie()).Columnar("l");
    const ColumnBatch orders =
        TableReader(data.GetTable("orders").ValueOrDie()).Columnar("o");
    JoinCondition cond;
    cond.left = ColumnRef("l", "l_orderkey");
    cond.right = ColumnRef("o", "o_orderkey");
    const JoinPredicate join_pred({cond});
    double kernel_serial_ms = 0.0;
    std::vector<NamedRows> kernel_serial;
    for (int threads : BenchThreadSweep()) {
      double best_ms = 0.0;
      ColumnBatch joined_batch;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        auto joined = HashJoinBatch(lineitem, orders, join_pred, threads);
        const double ms = timer.ElapsedMillis();
        if (!joined.ok()) {
          std::printf("join failed: %s\n", joined.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
        joined_batch = std::move(joined).ValueOrDie();
      }
      const size_t out_rows = joined_batch.num_rows;
      if (threads == 1) {
        kernel_serial_ms = best_ms;
        kernel_serial = {BatchToRows(joined_batch)};
      } else if (!SameResultSets(kernel_serial,
                                 {BatchToRows(joined_batch)})) {
        ++failures;  // determinism contract broken: not row-identical
      }
      const double speedup = kernel_serial_ms / std::max(best_ms, 1e-9);
      table.AddRow({std::to_string(rows_per_table), "hash-join kernel",
                    std::to_string(threads), FormatDouble(best_ms, 2),
                    FormatDouble(speedup, 2) + "x"});
      json.AddRecord({JStr("bench", "parallel_join"),
                      JStr("surface", "hash_join_kernel"),
                      JNum("rows_per_table", rows_per_table),
                      JNum("threads", threads), JNum("time_ms", best_ms),
                      JNum("join_rows", static_cast<double>(out_rows)),
                      JNum("speedup_vs_1t", speedup)});
    }

    // Surface 2: the build alone, on the kernel's build side.
    const int okey = orders.ColumnIndex(cond.right);
    for (int threads : {1, 2, 4}) {
      double best_ms = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        const JoinHashTable built =
            JoinHashTable::Build(orders, {okey}, PipelineOptions{threads});
        const double ms = timer.ElapsedMillis();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      table.AddRow({std::to_string(rows_per_table), "hash-join build",
                    std::to_string(threads), FormatDouble(best_ms, 2), "-"});
      json.AddRecord({JStr("bench", "parallel_join"),
                      JStr("surface", "hash_join_build"),
                      JNum("rows_per_table", rows_per_table),
                      JNum("threads", threads), JNum("time_ms", best_ms),
                      JNum("build_rows", static_cast<double>(orders.num_rows))});
    }

    // Surface 3: duplicate-heavy build keys.
    ColumnBatch dup_build;
    dup_build.names = {ColumnRef("d", "k"), ColumnRef("d", "v")};
    dup_build.columns = {ColumnVector(VecType::kInt64),
                         ColumnVector(VecType::kInt64)};
    for (int i = 0; i < rows_per_table; ++i) {
      dup_build.columns[0].ints().push_back(i % 16);
      dup_build.columns[1].ints().push_back(i);
    }
    dup_build.num_rows = static_cast<size_t>(rows_per_table);
    ColumnBatch dup_probe;
    dup_probe.names = {ColumnRef("p", "k")};
    dup_probe.columns = {ColumnVector(VecType::kInt64)};
    for (int i = 0; i < 64; ++i) dup_probe.columns[0].ints().push_back(i % 32);
    dup_probe.num_rows = 64;
    JoinCondition dup_cond;
    dup_cond.left = ColumnRef("p", "k");
    dup_cond.right = ColumnRef("d", "k");
    const JoinPredicate dup_pred({dup_cond});
    std::vector<NamedRows> dup_serial;
    for (int threads : {1, 2, 4}) {
      double best_ms = 0.0;
      ColumnBatch joined_batch;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        auto joined = HashJoinBatch(dup_probe, dup_build, dup_pred, threads);
        const double ms = timer.ElapsedMillis();
        if (!joined.ok()) {
          std::printf("join failed: %s\n", joined.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
        joined_batch = std::move(joined).ValueOrDie();
      }
      if (threads == 1) {
        dup_serial = {BatchToRows(joined_batch)};
      } else if (!SameResultSets(dup_serial, {BatchToRows(joined_batch)})) {
        ++failures;
      }
      table.AddRow({std::to_string(rows_per_table), "duplicate-heavy join",
                    std::to_string(threads), FormatDouble(best_ms, 2), "-"});
      json.AddRecord({JStr("bench", "parallel_join"),
                      JStr("surface", "hash_join_dup_keys"),
                      JNum("rows_per_table", rows_per_table),
                      JNum("threads", threads), JNum("time_ms", best_ms),
                      JNum("join_rows",
                           static_cast<double>(joined_batch.num_rows))});
    }

    // Surface 4: the consolidated Q9 batch end-to-end (joins + aggregation
    // pipelines, materialized-segment reuse).
    double engine_serial_ms = 0.0;
    std::vector<NamedRows> serial_results;
    for (int threads : BenchThreadSweep()) {
      ExecOptions exec;
      exec.num_threads = threads;
      double best_ms = 0.0;
      std::vector<NamedRows> results;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        auto executed = ExecuteConsolidatedWith(ExecBackend::kVector, &memo,
                                                &data, mqo_plan, exec);
        const double ms = timer.ElapsedMillis();
        if (!executed.ok()) {
          std::printf("execution failed: %s\n",
                      executed.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
        results = std::move(executed).ValueOrDie();
      }
      if (threads == 1) {
        engine_serial_ms = best_ms;
        serial_results = results;
      } else if (!SameResultSets(serial_results, results)) {
        ++failures;
      }
      const double speedup = engine_serial_ms / std::max(best_ms, 1e-9);
      table.AddRow({std::to_string(rows_per_table), "Q9 MQO batch",
                    std::to_string(threads), FormatDouble(best_ms, 2),
                    FormatDouble(speedup, 2) + "x"});
      json.AddRecord({JStr("bench", "parallel_join"),
                      JStr("surface", "q9_consolidated"),
                      JNum("rows_per_table", rows_per_table),
                      JNum("threads", threads), JNum("time_ms", best_ms),
                      JNum("speedup_vs_1t", speedup)});
    }
  }
  table.Print();
  const bool json_ok = json.WriteFile("BENCH_parallel_join.json");
  std::printf("\nresults identical across thread counts: %s; %zu records -> "
              "BENCH_parallel_join.json%s\n",
              failures == 0 ? "yes" : "NO (bug!)", json.num_records(),
              json_ok ? "" : " (write FAILED)");
  return failures == 0 && json_ok ? 0 : 1;
}
