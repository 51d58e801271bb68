// Morsel-parallel table scan + filter over native columnar storage.
//
// Generates one wide TPC-D lineitem table at growing row counts, takes a
// zero-copy TableReader view, and filters it as the vector engine does: a
// scan pipeline with the predicate fused into its source (zone maps and
// compressed-domain compares included), at 1, 2, and 4 worker threads
// (fixed morsel size). The selection must be identical at every thread
// count — morsel merge order is deterministic — and the scaling column
// shows what the worker pool buys on a hot scan.
//
// Usage: bench_storage_scan [num_rows ...]   (default: 50000 200000; pass a
// tiny count, e.g. `bench_storage_scan 5000`, for CI smoke runs). Writes
// machine-readable records to BENCH_storage_scan.json.

#include <algorithm>
#include <cstdio>

#include "bench_util/bench_args.h"
#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/row_ops.h"
#include "storage/morsel.h"
#include "storage/table_reader.h"
#include "support/pipelines.h"

using namespace mqo;

namespace {

Comparison Cmp(const char* qualifier, const char* name, CompareOp op,
               double literal) {
  Comparison c;
  c.column = ColumnRef(qualifier, name);
  c.op = op;
  c.literal = Literal(literal);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== morsel-parallel scan+filter over native columnar storage "
              "===\n\n");
  const std::vector<int> row_counts =
      ParseRowCounts(argc, argv, {50000, 200000});

  Catalog catalog = MakeTpcdCatalog(1);
  // Two int64 conjuncts and one double conjunct over lineitem: a selective
  // multi-column predicate, the shape the executor's filter nodes produce.
  const Predicate predicate({Cmp("l", "l_quantity", CompareOp::kLe, 30),
                             Cmp("l", "l_orderkey", CompareOp::kGt, 100),
                             Cmp("l", "l_extendedprice", CompareOp::kLt, 40000)});

  TablePrinter table({"rows", "threads", "morsels", "time (ms)", "throughput",
                      "selected", "scaling"});
  BenchJsonWriter json;
  constexpr int kReps = 5;
  constexpr size_t kMorselRows = 4096;
  int failures = 0;
  for (int num_rows : row_counts) {
    DataGenOptions gen;
    gen.max_rows_per_table = num_rows;
    gen.domain_cap = std::max(1, num_rows / 4);
    gen.seed = 2026;
    DataSet data = GenerateData(catalog, gen);
    auto store = data.GetTable("lineitem");
    if (!store.ok()) {
      std::printf("lineitem missing: %s\n",
                  store.status().ToString().c_str());
      return 1;
    }
    TableReader reader(store.ValueOrDie());
    const ColumnBatch view = reader.Columnar("l");
    const size_t morsels = MakeMorsels(view.num_rows, kMorselRows).size();
    double serial_ms = 0.0;
    std::vector<NamedRows> serial_rows;
    for (int threads : {1, 2, 4}) {
      ExecOptions exec;
      exec.num_threads = threads;
      exec.morsel_rows = kMorselRows;
      double best_ms = 0.0;
      ColumnBatch last;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        auto filtered = RunFilterPipeline(view, predicate, exec);
        const double ms = timer.ElapsedMillis();
        if (!filtered.ok()) {
          std::printf("filter failed: %s\n",
                      filtered.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
        last = std::move(filtered).ValueOrDie();
      }
      const size_t selected = last.num_rows;
      const std::vector<NamedRows> result_rows = {BatchToRows(last)};
      if (threads == 1) {
        serial_ms = best_ms;
        serial_rows = result_rows;
      } else if (!SameResultSets(serial_rows, result_rows)) {
        ++failures;  // morsel merge must be deterministic, cell for cell
      }
      const double scaling = serial_ms / std::max(best_ms, 1e-9);
      table.AddRow({std::to_string(num_rows), std::to_string(threads),
                    std::to_string(morsels), FormatDouble(best_ms, 3),
                    FormatRowsPerSec(view.num_rows, best_ms / 1000.0),
                    std::to_string(selected), FormatDouble(scaling, 2) + "x"});
      json.AddRecord(
          {JStr("bench", "storage_scan"), JNum("rows", num_rows),
           JNum("threads", threads), JNum("morsels", morsels),
           JNum("time_ms", best_ms),
           JNum("rows_per_sec",
                best_ms > 0.0 ? view.num_rows / (best_ms / 1000.0) : 0.0),
           JNum("selected", selected), JNum("scaling_vs_serial", scaling)});
    }
  }
  table.Print();
  const bool json_ok = json.WriteFile("BENCH_storage_scan.json");
  std::printf("\nselections identical across thread counts: %s; %zu records "
              "-> BENCH_storage_scan.json%s\n",
              failures == 0 ? "yes" : "NO (bug!)", json.num_records(),
              json_ok ? "" : " (write FAILED)");
  return failures == 0 && json_ok ? 0 : 1;
}
