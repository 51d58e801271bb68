// Row vs. vectorized execution head-to-head on the TPC-D workload.
//
// Executes the multi-join Q9 batch (both selection-constant variants) at
// growing data sizes, standalone (no materialization) and as the
// MarginalGreedy consolidated MQO plan, on the row interpreter and the
// columnar engine with a thread sweep (1/2/4/hardware max) over its
// morsel-parallel pipelines — join build/probe and aggregation included, so
// the sweep is the scaling curve of the whole engine, not just its scans.
// Reports wall time and source-rows-per-second throughput; execution time
// is where the optimizer's proven sharing wins have to materialize, and the
// columnar engine's zero-copy scans + pipelined hash joins are the route
// past the row interpreter's nested loops. Results must stay identical
// across all configurations.
//
// Usage: bench_vexec [rows_per_table ...]   (default: 400 1600 6400; pass
// tiny counts, e.g. `bench_vexec 64 128`, for CI smoke runs). Alongside the
// table, machine-readable records are written to BENCH_vexec.json.

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
#include "mqo/facade.h"
#include "mqo/mqo_algorithms.h"
#include "obs/obs.h"
#include "vexec/backend.h"
#include "vexec/pipeline.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

namespace {

/// Total base-table rows in the generated database: the source volume every
/// configuration reads, and the numerator of the throughput column.
double DatabaseRows(const Catalog& catalog, const DataSet& data) {
  double rows = 0.0;
  for (const auto& name : catalog.TableNames()) {
    auto table = data.GetTable(name);
    if (table.ok()) {
      rows += static_cast<double>(table.ValueOrDie()->num_rows());
    }
  }
  return rows;
}

/// One execution configuration of the head-to-head.
struct Config {
  const char* label;
  ExecBackend backend;
  int num_threads;
};

// ---- String-kernel microbenches (dictionary encoding + Bloom pushdown) ------

/// A string column of `rows` values drawn from `cardinality` distinct
/// strings, each 22 characters — past the small-string optimization, so the
/// raw form pays real heap traffic while the dictionary form moves int32
/// codes.
ColumnVector BenchStrings(int rows, int cardinality, int salt) {
  ColumnVector col(VecType::kString);
  col.strings().reserve(rows);
  char buf[32];
  for (int i = 0; i < rows; ++i) {
    std::snprintf(buf, sizeof(buf), "grp_payload_%010d",
                  (i * 131 + salt) % cardinality);
    col.strings().emplace_back(buf);
  }
  return col;
}

/// The batch with every string column decoded to raw std::strings (the
/// pre-dictionary physical form), values identical.
ColumnBatch DecodedCopy(const ColumnBatch& batch) {
  ColumnBatch out = batch;
  for (ColumnVector& col : out.columns) col.DecodeInPlace();
  return out;
}

AggExpr BenchAgg(AggFunc f, ColumnRef arg = {}) {
  AggExpr a;
  a.func = f;
  a.arg = std::move(arg);
  return a;
}

/// Serial best-of-`reps` wall time of one pipeline under `exec`; the result
/// lands in `*out` so callers can differential-check variants.
double BestOfRuns(const VecPipeline& pipe, const ExecOptions& exec, int reps,
                  ColumnBatch* out) {
  double best_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    auto result = RunVecPipeline(pipe, exec);
    const double ms = timer.ElapsedMillis();
    if (!result.ok()) {
      std::printf("pipeline bench failed: %s\n",
                  result.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0 || ms < best_ms) best_ms = ms;
    *out = std::move(result).ValueOrDie();
  }
  return best_ms;
}

double BestOfRuns(const VecPipeline& pipe, int reps, ColumnBatch* out) {
  return BestOfRuns(pipe, ExecOptions{}, reps, out);
}

bool BatchesEqual(const ColumnBatch& a, const ColumnBatch& b) {
  if (a.num_rows != b.num_rows || a.columns.size() != b.columns.size()) {
    return false;
  }
  for (size_t c = 0; c < a.columns.size(); ++c) {
    for (size_t r = 0; r < a.num_rows; ++r) {
      if (!ColumnVector::CellsEqual(a.columns[c], r, b.columns[c], r)) {
        return false;
      }
    }
  }
  return true;
}

/// GROUP BY tag pipeline (COUNT(*) + SUM(v)) over `source`.
VecPipeline GroupByPipeline(const ColumnBatch& source) {
  VecPipeline pipe;
  pipe.source = source;
  pipe.keep_idx = {0, 1};
  pipe.chunk_names = source.names;
  pipe.aggregate = true;
  pipe.agg_group_by = {source.names[0]};
  pipe.agg_aggs = {BenchAgg(AggFunc::kCount),
                   BenchAgg(AggFunc::kSum, source.names[1])};
  pipe.agg_group_idx = {0};
  pipe.agg_arg_idx = {-1, 1};
  return pipe;
}

/// Probe-side join pipeline: source.tag against `table`'s single string key.
VecPipeline JoinPipeline(const ColumnBatch& source,
                         std::shared_ptr<const JoinHashTable> table) {
  VecPipeline pipe;
  pipe.source = source;
  pipe.keep_idx = {0, 1};
  pipe.chunk_names = source.names;
  std::vector<ColumnRef> out_names = source.names;
  for (const auto& n : table->build().names) out_names.push_back(n);
  pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
      std::move(table), std::vector<int>{0}, std::vector<int>{0, 1},
      std::move(out_names)));
  return pipe;
}

/// Dictionary vs raw string kernels, serial: group-by and hash join at a
/// duplicate-heavy and an all-distinct cardinality. Appends one json record
/// per (workload, cardinality) with the dict-over-raw speedup.
void RunStringKernelBench(int rows, int reps, BenchJsonWriter* json,
                          int* failures) {
  std::printf("\n=== string kernels: dictionary codes vs raw strings "
              "(serial, %d rows) ===\n\n", rows);
  TablePrinter table({"workload", "cardinality", "raw (ms)", "dict (ms)",
                      "speedup"});
  struct Card {
    const char* label;
    int values;
  };
  for (const Card& card : {Card{"low (16)", 16}, Card{"distinct", rows}}) {
    // Group-by: single dict-encoded group column takes the code->group fast
    // path; the raw form re-hashes 22-char strings per row.
    ColumnBatch dict_src;
    dict_src.names = {ColumnRef("s", "tag"), ColumnRef("s", "v")};
    ColumnVector tag = BenchStrings(rows, card.values, 0);
    tag.DictEncode();
    ColumnVector v(VecType::kDouble);
    for (int i = 0; i < rows; ++i) {
      v.doubles().push_back(static_cast<double>(i % 10));
    }
    dict_src.columns = {std::move(tag), std::move(v)};
    dict_src.num_rows = rows;
    const ColumnBatch raw_src = DecodedCopy(dict_src);

    ColumnBatch dict_out;
    ColumnBatch raw_out;
    const double raw_ms = BestOfRuns(GroupByPipeline(raw_src), reps, &raw_out);
    const double dict_ms =
        BestOfRuns(GroupByPipeline(dict_src), reps, &dict_out);
    if (!BatchesEqual(raw_out, dict_out)) ++*failures;
    const double speedup = raw_ms / std::max(dict_ms, 1e-9);
    table.AddRow({"group-by", card.label, FormatDouble(raw_ms, 2),
                  FormatDouble(dict_ms, 2), FormatDouble(speedup, 1) + "x"});
    json->AddRecord({JStr("bench", "vexec_string"),
                     JStr("workload", "group_by"), JNum("rows", rows),
                     JNum("cardinality", card.values),
                     JNum("raw_ms", raw_ms), JNum("dict_ms", dict_ms),
                     JNum("dict_speedup", speedup)});

    // Hash join: probe and build dictionaries come from different columns
    // (the realistic two-table shape), so the dict path goes through the
    // cached code remap; the raw path re-hashes and re-compares strings.
    ColumnBatch dict_build;
    dict_build.names = {ColumnRef("b", "tag")};
    ColumnVector btag = BenchStrings(card.values, card.values, 0);
    btag.DictEncode();
    dict_build.columns = {std::move(btag)};
    dict_build.num_rows = card.values;
    const ColumnBatch raw_build = DecodedCopy(dict_build);

    auto dict_table = std::make_shared<const JoinHashTable>(JoinHashTable::Build(
        dict_build, {0}, PipelineOptions{}));
    auto raw_table = std::make_shared<const JoinHashTable>(JoinHashTable::Build(
        raw_build, {0}, PipelineOptions{}));
    const double raw_join_ms =
        BestOfRuns(JoinPipeline(raw_src, raw_table), reps, &raw_out);
    const double dict_join_ms =
        BestOfRuns(JoinPipeline(dict_src, dict_table), reps, &dict_out);
    if (!BatchesEqual(raw_out, dict_out)) ++*failures;
    const double join_speedup = raw_join_ms / std::max(dict_join_ms, 1e-9);
    table.AddRow({"hash join", card.label, FormatDouble(raw_join_ms, 2),
                  FormatDouble(dict_join_ms, 2),
                  FormatDouble(join_speedup, 1) + "x"});
    json->AddRecord({JStr("bench", "vexec_string"), JStr("workload", "join"),
                     JNum("rows", rows), JNum("cardinality", card.values),
                     JNum("raw_ms", raw_join_ms),
                     JNum("dict_ms", dict_join_ms),
                     JNum("dict_speedup", join_speedup)});
  }
  table.Print();
}

/// Bloom pushdown across build selectivities: an int-keyed join where a
/// controlled fraction of probe rows can match. Pushdown on vs off must give
/// identical join outputs; the win grows as selectivity drops.
void RunBloomSweep(int rows, int reps, BenchJsonWriter* json, int* failures) {
  std::printf("\n=== Bloom pushdown: probe-side prefilter vs none (serial, "
              "%d rows) ===\n\n", rows);
  TablePrinter table({"hit fraction", "off (ms)", "on (ms)", "speedup"});
  const int build_keys = std::max(rows / 64, 16);
  ColumnBatch build;
  build.names = {ColumnRef("b", "k")};
  ColumnVector bk(VecType::kInt64);
  for (int i = 0; i < build_keys; ++i) bk.ints().push_back(i);
  build.columns = {std::move(bk)};
  build.num_rows = build_keys;
  auto table_ptr = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(std::move(build), {0}, PipelineOptions{}));

  for (const double hit : {0.01, 0.1, 0.5, 1.0}) {
    ColumnBatch probe;
    probe.names = {ColumnRef("p", "k"), ColumnRef("p", "v")};
    ColumnVector pk(VecType::kInt64);
    ColumnVector pv(VecType::kDouble);
    const int period = std::max(1, static_cast<int>(1.0 / hit));
    for (int i = 0; i < rows; ++i) {
      // Every `period`-th row hits the build domain; misses sit far outside
      // it so the zone check and the Bloom filter both get a say.
      pk.ints().push_back(i % period == 0 ? i % build_keys
                                          : build_keys + 1 + i);
      pv.doubles().push_back(static_cast<double>(i % 10));
    }
    probe.columns = {std::move(pk), std::move(pv)};
    probe.num_rows = rows;

    VecPipeline off = JoinPipeline(probe, table_ptr);
    VecPipeline on = JoinPipeline(probe, table_ptr);
    on.bloom = table_ptr->bloom();
    on.bloom_key_idx = {0};
    ColumnBatch off_out;
    ColumnBatch on_out;
    const double off_ms = BestOfRuns(off, reps, &off_out);
    const double on_ms = BestOfRuns(on, reps, &on_out);
    if (!BatchesEqual(off_out, on_out)) ++*failures;
    const double speedup = off_ms / std::max(on_ms, 1e-9);
    table.AddRow({FormatDouble(hit, 2), FormatDouble(off_ms, 2),
                  FormatDouble(on_ms, 2), FormatDouble(speedup, 1) + "x"});
    json->AddRecord({JStr("bench", "vexec_bloom"), JNum("rows", rows),
                     JNum("hit_fraction", hit), JNum("bloom_off_ms", off_ms),
                     JNum("bloom_on_ms", on_ms),
                     JNum("bloom_speedup", speedup)});
  }
  table.Print();
}

// ---- Compressed-domain numeric execution sweep ------------------------------

Comparison BandCmp(CompareOp op, double lit) {
  Comparison c;
  c.column = ColumnRef("n", "k");
  c.op = op;
  c.literal = lit;
  return c;
}

/// Scan + fused `k < cutoff` filter over `source`, keeping both columns.
VecPipeline NumericFilterPipeline(const ColumnBatch& source, double cutoff) {
  VecPipeline pipe;
  pipe.source = source;
  pipe.source_filters = {BandCmp(CompareOp::kLt, cutoff)};
  pipe.source_filter_idx = {0};
  pipe.keep_idx = {0, 1};
  pipe.chunk_names = source.names;
  return pipe;
}

/// Physical bytes of the source's columns — what MatStore would account.
double SourceBytes(const ColumnBatch& source) {
  double bytes = 0.0;
  for (const ColumnVector& col : source.columns) {
    bytes += static_cast<double>(col.ByteSize());
  }
  return bytes;
}

/// FOR codes + zone skipping across filter selectivities, serial: a sorted
/// (clustered) int64 key column where `k < cutoff` passes a controlled
/// fraction of rows at the front of the table and the zone maps prune every
/// granule past it. Variants: plain vector, FOR codes (compressed-domain
/// compare, no skipping), FOR + zone maps. All three must produce identical
/// batches; bytes-resident rides along so the space win is visible next to
/// the time win.
void RunNumericSweep(int rows, int reps, BenchJsonWriter* json,
                     int* failures) {
  std::printf("\n=== numeric compression: FOR codes + zone skipping "
              "(serial, %d rows) ===\n\n", rows);
  TablePrinter table({"selectivity", "plain (ms)", "FOR (ms)",
                      "FOR+zones (ms)", "zone speedup", "bytes FOR/plain"});

  // Sorted, clustered key: k = row / 4. Every 1024-row granule spans 256
  // values, so a front-of-table band filter leaves whole granules excluded.
  ColumnBatch plain_src;
  plain_src.names = {ColumnRef("n", "k"), ColumnRef("n", "v")};
  ColumnVector k(VecType::kInt64);
  ColumnVector v(VecType::kDouble);
  for (int i = 0; i < rows; ++i) {
    k.ints().push_back(i / 4);
    v.doubles().push_back(static_cast<double>(i % 10));
  }
  plain_src.columns = {std::move(k), std::move(v)};
  plain_src.num_rows = rows;
  ColumnBatch for_src = plain_src;  // COW copy, then re-encode the key
  if (!for_src.columns[0].ForEncode()) {
    std::printf("numeric bench: FOR encoding unexpectedly declined\n");
    ++*failures;
    return;
  }
  for_src.columns[0].BuildZoneMap();
  for_src.columns[1].BuildZoneMap();
  const double bytes_plain = SourceBytes(plain_src);
  const double bytes_for = SourceBytes(for_src);

  ExecOptions no_zones;
  no_zones.zone_maps = false;
  ExecOptions with_zones;
  with_zones.zone_maps = true;
  const double max_key = static_cast<double>(rows) / 4.0;
  for (const double sel : {0.01, 0.1, 0.5}) {
    const double cutoff = max_key * sel;
    ColumnBatch plain_out;
    ColumnBatch for_out;
    ColumnBatch zone_out;
    const double plain_ms = BestOfRuns(NumericFilterPipeline(plain_src, cutoff),
                                       no_zones, reps, &plain_out);
    const double for_ms = BestOfRuns(NumericFilterPipeline(for_src, cutoff),
                                     no_zones, reps, &for_out);
    const double zone_ms = BestOfRuns(NumericFilterPipeline(for_src, cutoff),
                                      with_zones, reps, &zone_out);
    if (!BatchesEqual(plain_out, for_out) ||
        !BatchesEqual(plain_out, zone_out)) {
      ++*failures;
    }
    const double zone_speedup = plain_ms / std::max(zone_ms, 1e-9);
    table.AddRow({FormatDouble(sel, 2), FormatDouble(plain_ms, 2),
                  FormatDouble(for_ms, 2), FormatDouble(zone_ms, 2),
                  FormatDouble(zone_speedup, 1) + "x",
                  FormatDouble(bytes_for / std::max(bytes_plain, 1.0), 2)});
    json->AddRecord({JStr("bench", "vexec_zone"), JNum("rows", rows),
                     JNum("selectivity", sel), JNum("plain_ms", plain_ms),
                     JNum("for_ms", for_ms), JNum("for_zone_ms", zone_ms),
                     JNum("zone_speedup", zone_speedup),
                     JNum("bytes_plain", bytes_plain),
                     JNum("bytes_for", bytes_for)});
  }
  table.Print();

  // Join-key hashing on packed blocks: the same int-keyed join, build and
  // probe key columns plain vs FOR-encoded. Outputs must be identical —
  // the FOR hash kernel is bit-compatible with the plain one.
  const int build_keys = std::max(rows / 64, 16);
  ColumnBatch plain_build;
  plain_build.names = {ColumnRef("b", "k")};
  ColumnVector bk(VecType::kInt64);
  for (int i = 0; i < build_keys; ++i) bk.ints().push_back(i);
  plain_build.columns = {std::move(bk)};
  plain_build.num_rows = build_keys;
  ColumnBatch probe = plain_src;
  for (size_t r = 0; r < probe.columns[0].ints().size(); ++r) {
    probe.columns[0].ints()[r] = static_cast<int64_t>(r) % build_keys;
  }
  ColumnBatch for_build = plain_build;
  ColumnBatch for_probe = probe;
  const bool build_enc = for_build.columns[0].ForEncode();
  const bool probe_enc = for_probe.columns[0].ForEncode();
  auto plain_table = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(plain_build, {0}, PipelineOptions{}));
  auto for_table = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(for_build, {0}, PipelineOptions{}));
  ColumnBatch plain_join_out;
  ColumnBatch for_join_out;
  const double plain_join_ms =
      BestOfRuns(JoinPipeline(probe, plain_table), no_zones, reps,
                 &plain_join_out);
  const double for_join_ms =
      BestOfRuns(JoinPipeline(for_probe, for_table), no_zones, reps,
                 &for_join_out);
  if (!BatchesEqual(plain_join_out, for_join_out)) ++*failures;
  std::printf("\njoin keys: plain %.2f ms, FOR %.2f ms (build/probe encoded: "
              "%d/%d)\n", plain_join_ms, for_join_ms, build_enc ? 1 : 0,
              probe_enc ? 1 : 0);
  json->AddRecord({JStr("bench", "vexec_for_join"), JNum("rows", rows),
                   JNum("build_keys", build_keys),
                   JNum("plain_ms", plain_join_ms),
                   JNum("for_ms", for_join_ms),
                   JNum("bytes_plain", SourceBytes(probe)),
                   JNum("bytes_for", SourceBytes(for_probe))});
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== vectorized vs row execution: TPC-D Q9 x2 (6-relation "
              "joins) ===\n\n");
  const std::vector<int> row_counts =
      ParseRowCounts(argc, argv, {400, 1600, 6400});

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
  const ConsolidatedPlan standalone_plan = optimizer.Plan({});
  const ConsolidatedPlan mqo_plan = optimizer.Plan(marginal.materialized);

  // The scaling curve of the pipelined engine: the row baseline, then the
  // vector backend over the shared bench thread sweep.
  std::vector<Config> configs = {{"row", ExecBackend::kRow, 1}};
  for (int threads : BenchThreadSweep()) {
    configs.push_back({"vector", ExecBackend::kVector, threads});
  }

  TablePrinter table({"rows/table", "plan", "backend", "threads", "time (ms)",
                      "throughput", "speedup"});
  BenchJsonWriter json;
  constexpr int kReps = 3;
  int failures = 0;
  for (int rows_per_table : row_counts) {
    DataGenOptions gen;
    gen.max_rows_per_table = rows_per_table;
    // Key domains scale with table size (PK-FK shape) so join fan-out stays
    // constant as the database grows instead of exploding quadratically.
    gen.domain_cap = std::max(1, rows_per_table / 4);
    gen.seed = 2026;  // identical database for every backend and plan
    DataSet data = GenerateData(catalog, gen);
    const double db_rows = DatabaseRows(catalog, data);
    struct Mode {
      const char* name;
      const ConsolidatedPlan* plan;
    };
    for (const Mode& mode : {Mode{"standalone", &standalone_plan},
                             Mode{"MQO consolidated", &mqo_plan}}) {
      double row_ms = 0.0;
      std::vector<NamedRows> row_results;
      for (const Config& config : configs) {
        ExecOptions exec;
        exec.num_threads = config.num_threads;
        double best_ms = 0.0;
        std::vector<NamedRows> results;
        for (int rep = 0; rep < kReps; ++rep) {
          WallTimer timer;
          auto executed = ExecuteConsolidatedWith(config.backend, &memo, &data,
                                                  *mode.plan, exec);
          const double ms = timer.ElapsedMillis();
          if (!executed.ok()) {
            std::printf("execution failed: %s\n",
                        executed.status().ToString().c_str());
            return 1;
          }
          if (rep == 0 || ms < best_ms) best_ms = ms;
          results = std::move(executed).ValueOrDie();
        }
        if (config.backend == ExecBackend::kRow) {
          row_ms = best_ms;
          row_results = results;
        } else if (!SameResultSets(row_results, results)) {
          ++failures;
        }
        const double speedup =
            config.backend == ExecBackend::kRow
                ? 1.0
                : row_ms / std::max(best_ms, 1e-9);
        table.AddRow({std::to_string(rows_per_table), mode.name, config.label,
                      std::to_string(config.num_threads),
                      FormatDouble(best_ms, 2),
                      FormatRowsPerSec(db_rows, best_ms / 1000.0),
                      FormatDouble(speedup, 1) + "x"});
        json.AddRecord({JStr("bench", "vexec"),
                        JNum("rows_per_table", rows_per_table),
                        JStr("plan", mode.name), JStr("backend", config.label),
                        JNum("threads", config.num_threads),
                        JNum("time_ms", best_ms),
                        JNum("rows_per_sec",
                             best_ms > 0.0 ? db_rows / (best_ms / 1000.0) : 0.0),
                        JNum("speedup_vs_row", speedup)});
      }
    }
  }
  table.Print();

  // String-heavy kernels and the Bloom-pushdown selectivity sweep, sized off
  // the largest requested row count so CI smoke runs stay fast.
  const int string_rows = std::max(2000, row_counts.back() * 8);
  RunStringKernelBench(string_rows, kReps, &json, &failures);
  RunBloomSweep(string_rows, kReps, &json, &failures);
  // The numeric sweep wants several 1024-row zone granules even in smoke
  // runs, so it gets a higher floor.
  RunNumericSweep(std::max(16384, row_counts.back() * 8), kReps, &json,
                  &failures);

  // MQO_TRACE=1 (optionally MQO_TRACE_FILE=<path>): one extra traced run of
  // the consolidated plan on the vector backend, separate from the timed
  // loop above so tracing overhead never leaks into the reported numbers.
  ObsOptions obs_options =
      ResolveMqoOptions({}, ParseEnvOverrides()).options.obs;
  if (obs_options.trace) {
    if (obs_options.trace_path.empty()) {
      obs_options.trace_path = "bench_vexec_trace.json";
    }
    ObsContext obs_ctx(obs_options);
    DataGenOptions gen;
    gen.max_rows_per_table = row_counts.back();
    gen.domain_cap = std::max(1, row_counts.back() / 4);
    gen.seed = 2026;
    DataSet data = GenerateData(catalog, gen);
    ExecOptions exec;
    exec.obs = &obs_ctx;
    auto traced = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                          mqo_plan, exec);
    if (traced.ok() &&
        obs_ctx.tracer()->WriteChromeJson(obs_options.trace_path)) {
      std::printf("\ntrace written to %s (%zu events)\n",
                  obs_options.trace_path.c_str(),
                  obs_ctx.tracer()->Events().size());
    } else {
      std::printf("\ntraced run FAILED\n");
    }
  }

  const bool json_ok = json.WriteFile("BENCH_vexec.json");
  std::printf("\n%d node(s) materialized by MarginalGreedy; row and vector "
              "results identical: %s; %zu records -> BENCH_vexec.json%s\n",
              marginal.num_materialized, failures == 0 ? "yes" : "NO (bug!)",
              json.num_records(), json_ok ? "" : " (write FAILED)");
  return failures == 0 && json_ok ? 0 : 1;
}
