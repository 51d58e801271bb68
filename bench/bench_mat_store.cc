// Memory-governed MatStore throughput across budget fractions.
//
// Builds a working set of columnar segments (slices of a generated TPC-D
// lineitem table), then drives the store through a put + read-many pass at
// shrinking byte budgets: unlimited (everything resident, pure hits), 1/2,
// 1/4 and 1/8 of the working set (eviction pressure, reads split between
// resident hits and disk reloads). Reported throughput separates the three
// regimes — put (segment admission incl. any eviction writes), hit (resident
// zero-copy reads) and reload (spill-file rehydration) — so the cost of
// running under a budget is visible as the budget tightens.
//
// Usage: bench_mat_store [rows_per_segment ...]   (default: 20000; pass a
// tiny count, e.g. `bench_mat_store 500`, for CI smoke runs). Writes
// machine-readable records to BENCH_mat_store.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/bench_args.h"
#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/dataset.h"
#include "storage/mat_store.h"
#include "storage/table_reader.h"

using namespace mqo;

namespace {

constexpr int kNumSegments = 16;
constexpr int kReadsPerSegment = 8;

/// `count` equal row slices of the generated lineitem table, as owned
/// (gathered) segments so each Put charges real payload bytes.
std::vector<ColumnBatch> MakeSegments(int rows_per_segment, int count) {
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = rows_per_segment * count;
  gen.domain_cap = std::max(1, rows_per_segment / 2);
  gen.seed = 2026;
  DataSet data = GenerateData(catalog, gen);
  TableReader reader(data.GetTable("lineitem").ValueOrDie());
  const ColumnBatch view = reader.Columnar("l");
  std::vector<ColumnBatch> segments;
  for (int s = 0; s < count; ++s) {
    SelVector sel;
    const size_t begin = size_t(s) * rows_per_segment;
    const size_t end =
        std::min(view.num_rows, begin + size_t(rows_per_segment));
    for (size_t r = begin; r < end; ++r) sel.push_back(uint32_t(r));
    segments.push_back(view.Gather(sel));
  }
  return segments;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== memory-governed MatStore: put/hit/reload across budget "
              "fractions ===\n\n");
  const std::vector<int> row_counts = ParseRowCounts(argc, argv, {20000});

  TablePrinter table({"rows/seg", "budget", "puts", "evict", "reload",
                      "put MB/s", "hit MB/s", "reload MB/s"});
  BenchJsonWriter json;
  int failures = 0;
  for (int rows_per_segment : row_counts) {
    const std::vector<ColumnBatch> segments =
        MakeSegments(rows_per_segment, kNumSegments);
    size_t working_set = 0;
    for (const auto& s : segments) working_set += s.ByteSize();

    for (int divisor : {0, 2, 4, 8}) {  // 0 = unlimited
      MatStoreOptions options;
      options.budget_bytes = divisor == 0 ? 0 : working_set / divisor;
      MatStore store(options);

      // Put pass: admit every segment under the budget.
      std::vector<SegmentRef> refs;
      WallTimer put_timer;
      for (int s = 0; s < kNumSegments; ++s) {
        refs.push_back(store.Put(segments[s], kReadsPerSegment));
      }
      const double put_ms = put_timer.ElapsedMillis();
      if (!store.last_error().ok()) ++failures;  // a spill write failed

      // Read pass: round-robin so evicted segments keep getting re-read.
      // Hits and reloads are timed separately via the stats deltas.
      double hit_ms = 0.0, reload_ms = 0.0;
      size_t hit_bytes = 0, reload_bytes = 0;
      for (int r = 0; r < kReadsPerSegment; ++r) {
        for (int s = 0; s < kNumSegments; ++s) {
          WallTimer read_timer;
          auto pinned = store.Pin(refs[s]);
          const double ms = read_timer.ElapsedMillis();
          if (!pinned.ok() || pinned.ValueOrDie().batch().num_rows == 0) {
            ++failures;
            continue;
          }
          if (pinned.ValueOrDie().reloaded()) {
            reload_ms += ms;
            reload_bytes += refs[s].bytes();
          } else {
            hit_ms += ms;
            hit_bytes += refs[s].bytes();
          }
        }
      }

      const MatStoreStats& stats = store.stats();
      auto mbps = [](size_t bytes, double ms) {
        return ms > 0.0 ? (bytes / 1e6) / (ms / 1000.0) : 0.0;
      };
      const std::string budget_label =
          divisor == 0 ? "unlimited" : "1/" + std::to_string(divisor);
      table.AddRow({std::to_string(rows_per_segment), budget_label,
                    std::to_string(stats.puts),
                    std::to_string(stats.evictions),
                    std::to_string(stats.reloads),
                    FormatDouble(mbps(working_set, put_ms), 1),
                    FormatDouble(mbps(hit_bytes, hit_ms), 1),
                    FormatDouble(mbps(reload_bytes, reload_ms), 1)});
      json.AddRecord(
          {JStr("bench", "mat_store"), JNum("rows_per_segment", rows_per_segment),
           JNum("segments", kNumSegments),
           JNum("working_set_bytes", double(working_set)),
           JNum("budget_bytes", double(options.budget_bytes)),
           JStr("budget", budget_label), JNum("puts", double(stats.puts)),
           JNum("evictions", double(stats.evictions)),
           JNum("spill_writes", double(stats.spill_writes)),
           JNum("reloads", double(stats.reloads)),
           JNum("put_mb_per_sec", mbps(working_set, put_ms)),
           JNum("hit_mb_per_sec", mbps(hit_bytes, hit_ms)),
           JNum("reload_mb_per_sec", mbps(reload_bytes, reload_ms))});
    }
  }
  table.Print();
  const bool json_ok = json.WriteFile("BENCH_mat_store.json");
  std::printf("\n%zu records -> BENCH_mat_store.json%s%s\n",
              json.num_records(), json_ok ? "" : " (write FAILED)",
              failures == 0 ? "" : "; READ FAILURES (bug!)");
  return failures == 0 && json_ok ? 0 : 1;
}
