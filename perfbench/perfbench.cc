// Macro benchmark of the multi-query optimizer: three closed-loop workloads
// driven through the public facade, each loading a different layer.
//
//   tpcd_exec      The paper's BQ3 batch (Q3/Q5/Q7, two constants each)
//                  through OptimizeAndExecuteBatch on the vectorized engine
//                  with 1 exec thread over ~50k rows per table, whose
//                  filtered string columns hold TPC-D's values so every
//                  query returns rows: execution does most of each batch;
//                  no parsing, no segment cache.
//   dashboard_sql  200-query SQL dashboard bursts (four TPC-D-shaped
//                  templates per date window, ~8 queries per window) through
//                  OptimizeAndExecuteSqlBatch on ~1k rows per table: plan
//                  search and greedy selection dominate; parsing and memo
//                  build only show up here.
//   service_mix    One long-lived MqoSession with 2 client threads. Each
//                  batch holds a hot pair whose shared class is cached in
//                  set-up (a hit) and a fresh pair over a window unique to
//                  the batch (a miss and an insert), under a cache budget
//                  above the hot set and below the insert stream, so the
//                  cache evicts, spills and rehydrates.
//
// Untraced runs (--trace 0) time every batch of a closed loop that runs for
// --seconds and report latency percentiles and throughput, scaled to a
// reference host speed measured between batches (see the host speed probe),
// the plan cost ratio bc(S)/bc(empty), set-up time and peak RSS. Traced runs (--trace 1) run one
// fixed batch sequence twice, interleaved batch by batch: through the facade
// (the wall time users see) and through a replica of the facade's call
// sequence that times each layer call — parse, memo build + expansion,
// optimizer set-up, greedy selection, plan extraction, execution — and does
// the facade's EXPLAIN work too, so the two differ only by the timers. The
// work counters of the two passes must agree exactly. A last serial pass
// executes each batch's no-MQO plan for the realized cost ratio.
//
// Outputs are checked outside the timed region. The row interpreter (the
// reference engine; its joins are nested loops) runs one batch of the
// workload's shape on a small copy of the data against the measured
// configuration. At full size, the first result of every distinct query is
// compared with a no-MQO run of that query alone, and repeats are
// hash-compared with the first.
//
// Usage:
//   mqo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --spill-dir DIR
// Progress goes to stderr; the last line of stdout is one JSON object with
// "correct", "attempted", "failed", "metrics", "exact" (the counters that
// must repeat exactly for a seed) and "info". Exit code 3 means a work
// counter drifted between two runs of the same batch.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

#include "catalog/tpcd.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/dataset.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "mqo/mqo_algorithms.h"
#include "obs/clock.h"
#include "parser/parser.h"
#include "physical/plan.h"
#include "stats/feedback.h"
#include "stats/table_stats.h"
#include "storage/for_codec.h"
#include "storage/segment_cache.h"
#include "vexec/backend.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

namespace {

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  int rows = 0;             ///< Generated rows per table (small tables less).
  /// Distinct values of generated keys (DataGenOptions::domain_cap): the
  /// table size keeps joins near one match per row; kDays makes them fan
  /// out and keeps string dictionaries, and so cached segments, small.
  int key_domain = 0;
  int clients = 1;          ///< Closed-loop client threads.
  size_t cache_budget = 0;  ///< Shared segment cache budget (service_mix).
  int distinct_batches = 1; ///< Measured batches cycle over this many.
  int warmup_batches = 0;   ///< Per set-up, after statistics analysis.
  int trace_batches = 0;    ///< Per client, in each traced pass.
  /// Rows per table of the row-engine check (the interpreter joins by
  /// nested loops); enough that the check's queries return rows.
  int check_rows = 1500;
  /// New queries get a no-MQO reference run in the first 16 batches of a
  /// client and then in every reference_every-th batch; repeated queries
  /// are always hash-compared.
  int reference_every = 1;
};

constexpr int kDays = 2557;         // o_orderdate / l_shipdate domain
constexpr int kOrderWindow = 90;    // templates 0/1
constexpr int kShipWindow = 365;    // templates 2/3
constexpr int kDashboardQueries = 200;
constexpr int kDashboardWindows = 25;
constexpr int kSetupRepeats = 3;    // untraced runs report the median set-up

bool LookupWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "tpcd_exec") {
    w->rows = 50000;
    w->key_domain = 50000;
    w->warmup_batches = 6;
    w->trace_batches = 24;
    return true;
  }
  if (name == "dashboard_sql") {
    w->rows = 1000;
    w->key_domain = kDays;
    w->distinct_batches = 4;
    w->warmup_batches = 12;
    w->trace_batches = 24;
    w->check_rows = 400;  // 200 queries per batch
    return true;
  }
  if (name == "service_mix") {
    w->rows = 20000;
    w->key_domain = kDays;
    w->clients = 2;
    w->cache_budget = size_t{4} << 20;
    w->reference_every = 8;  // every batch brings two new queries
    w->warmup_batches = 12;
    w->trace_batches = 30;
    return true;
  }
  return false;
}

/// A batch and the identity of its contents: equal keys mean equal queries.
struct Batch {
  uint64_t key = 0;
  std::vector<uint64_t> query_keys;
  std::vector<std::string> sql;       ///< dashboard_sql, service_mix
  std::vector<LogicalExprPtr> trees;  ///< tpcd_exec

  /// Query `j` as a batch of its own.
  Batch Single(size_t j) const {
    Batch b;
    b.query_keys = {query_keys[j]};
    if (sql.empty()) b.trees = {trees[j]};
    else b.sql = {sql[j]};
    return b;
  }
};

/// Template t over the date window [day, day + width).
std::string TemplateSql(int t, int day, int width) {
  const std::string lo = std::to_string(day);
  const std::string hi = std::to_string(day + width);
  switch (t) {
    case 0:  // revenue per customer key over the order window
      return "SELECT o_custkey, sum(l_extendedprice) FROM orders, lineitem "
             "WHERE o_orderkey = l_orderkey AND o_orderdate >= " + lo +
             " AND o_orderdate < " + hi + " GROUP BY o_custkey";
    case 1:  // the same windowed core joined up to customer
      return "SELECT l_orderkey, sum(l_extendedprice) "
             "FROM orders, lineitem, customer "
             "WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey "
             "AND o_orderdate >= " + lo + " AND o_orderdate < " + hi +
             " GROUP BY l_orderkey";
    case 2:  // Q6 shape: selective scalar aggregate over shipped lineitems
      return "SELECT sum(l_extendedprice) FROM lineitem "
             "WHERE l_shipdate >= " + lo + " AND l_shipdate < " + hi +
             " AND l_quantity < 24";
    default:  // shipped lineitems joined to supplier (Q9 flavor)
      return "SELECT s_nationkey, sum(l_extendedprice) FROM lineitem, supplier "
             "WHERE l_suppkey = s_suppkey AND l_shipdate >= " + lo +
             " AND l_shipdate < " + hi + " GROUP BY s_nationkey";
  }
}

void AddTemplate(Batch* b, int t, int day, int width) {
  b->sql.push_back(TemplateSql(t, day, width));
  b->query_keys.push_back(HashString(b->sql.back()));
  b->key = HashCombine(b->key, b->query_keys.back());
}

/// Deterministic batch generator of one workload and seed.
class BatchSource {
 public:
  BatchSource(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
    hot_day_ = rng.NextInt(kDays - kShipWindow);
    fresh_start_ = rng.NextInt(kDays - kOrderWindow);
  }

  /// Warm-up batch `r`; service_mix warms on fresh windows of its own.
  Batch Warmup(int r) const {
    if (w_.name == "service_mix") return Service(r);
    return Make(0, r);
  }

  /// The `index`-th measured batch of `client`.
  Batch Make(int client, int index) const {
    if (w_.name == "tpcd_exec") {
      Batch b;
      b.trees = MakeBatchedWorkload(3);
      for (size_t i = 0; i < b.trees.size(); ++i) b.query_keys.push_back(i);
      b.key = 1;
      return b;
    }
    if (w_.name == "dashboard_sql") return Dashboard(index % w_.distinct_batches);
    // Measured fresh windows follow the warm-up ones, one per batch.
    return Service(w_.warmup_batches + index * w_.clients + client);
  }

 private:
  Batch Dashboard(int k) const {
    Rng rng(seed_ * 1000003ull + static_cast<uint64_t>(k));
    int days[kDashboardWindows];
    for (int& d : days) d = rng.NextInt(kDays - kShipWindow);
    Batch b;
    for (int i = 0; i < kDashboardQueries; ++i) {
      const int t = i % 4;
      AddTemplate(&b, t, days[(i / 4) % kDashboardWindows],
                  t < 2 ? kOrderWindow : kShipWindow);
    }
    return b;
  }

  /// The hot pair plus a fresh pair over window `g`; (day, width) differs
  /// for every g, and fresh widths never equal the hot one. Each pair
  /// shares its filtered orders scan, which the optimizer materializes.
  Batch Service(int g) const {
    Batch b;
    AddTemplate(&b, 0, hot_day_, kOrderWindow - 1);
    AddTemplate(&b, 1, hot_day_, kOrderWindow - 1);
    const int steps = (kDays - kOrderWindow - 8) / 7;
    const int day = (fresh_start_ + 7 * (g % steps)) % (kDays - kOrderWindow - 8);
    const int width = kOrderWindow + g / steps;
    AddTemplate(&b, 0, day, width);
    AddTemplate(&b, 1, day, width);
    return b;
  }

  Workload w_;
  uint64_t seed_;
  int hot_day_ = 0;
  int fresh_start_ = 0;
};

// ---- Per-batch records --------------------------------------------------------

/// Wall time of each layer call in a replica batch, ms.
struct LayerTimes {
  double parse = 0, build = 0, opt_setup = 0, select = 0, plan = 0, exec = 0;
  double explain = 0;  ///< EXPLAIN capture and report (part of unattributed).
  double volcano_exec = 0;
  double wall = 0;  ///< Replica batch start to end (no-MQO run excluded).
};

struct BatchRecord {
  int client = 0;
  int index = 0;
  double ms = 0.0;  ///< Submit-to-result latency.
  double probe_ms = 0.0;  ///< Mean of the host probes around the batch.
  bool ok = false;
  std::string error;
  uint64_t key = 0;
  std::vector<uint64_t> query_keys;
  std::vector<uint64_t> hashes;  ///< Per query result.
  int64_t result_rows = 0;
  // Work counters of the optimization (exact for a given batch and cache).
  double cost_ratio = 0.0;  ///< bc(S) / bc(empty)
  int64_t bc_misses = 0;
  int64_t function_evals = 0;
  int64_t costings = 0;  ///< Replica only (the facade does not expose it).
  int shareable = 0;
  int materialized = 0;
  int classes = 0;
  int ops = 0;
  int64_t cross_batch_hits = 0;
  MatStoreStats store;
  LayerTimes layers;
};

uint64_t HashResult(const NamedRows& r) {
  uint64_t h = HashCombine(r.columns.size(), r.rows.size());
  for (const ColumnRef& c : r.columns) h = HashCombine(h, c.Hash());
  for (const auto& row : r.rows) {
    for (const Value& v : row) h = HashCombine(h, v.Hash());
  }
  return h;
}

void RecordResults(const std::vector<NamedRows>& results, BatchRecord* rec) {
  rec->hashes.clear();
  rec->result_rows = 0;
  for (const NamedRows& r : results) {
    rec->hashes.push_back(HashResult(r));
    rec->result_rows += static_cast<int64_t>(r.rows.size());
  }
  if (rec->hashes.size() != rec->query_keys.size()) {
    rec->ok = false;
    rec->error = "result count differs from query count";
  }
}

void RecordOptimization(const MqoResult& r, BatchRecord* rec) {
  rec->cost_ratio = r.total_cost / std::max(r.volcano_cost, 1e-12);
  rec->bc_misses = r.optimizations;
  rec->function_evals = r.function_evals;
  rec->materialized = r.num_materialized;
}

void Accumulate(const MatStoreStats& s, MatStoreStats* into) {
  into->puts += s.puts;
  into->evictions += s.evictions;
  into->spill_writes += s.spill_writes;
  into->reloads += s.reloads;
  into->bytes_spilled += s.bytes_spilled;
  into->bytes_reloaded += s.bytes_reloaded;
}

MatStoreStats Delta(const MatStoreStats& after, const MatStoreStats& before) {
  MatStoreStats d;
  d.puts = after.puts - before.puts;
  d.evictions = after.evictions - before.evictions;
  d.spill_writes = after.spill_writes - before.spill_writes;
  d.reloads = after.reloads - before.reloads;
  d.bytes_spilled = after.bytes_spilled - before.bytes_spilled;
  d.bytes_reloaded = after.bytes_reloaded - before.bytes_reloaded;
  return d;
}

double SinceMs(int64_t start_ns) {
  return NanosToMillis(MonotonicNanos() - start_ns);
}

// ---- Host speed probe ---------------------------------------------------------
//
// On a shared host the same batch can take 1.3-1.6x longer for seconds to
// minutes at a time: other tenants contend for the core's caches and memory.
// A dependent-arithmetic loop does not slow down; hash probes, node
// allocation and string sorting do, almost as much as the workloads here. So
// each client runs a fixed probe of those three (code of this file, not of
// the library) before its first batch and after every batch, and latency and
// throughput are also reported scaled to the host speed at which the probe
// takes kProbeRefMs: a batch's time is scaled by kProbeRefMs over the mean of
// the probes just before and just after it. Slow spells can be shorter than a
// second, so the probes must bracket the batch. A library change does not
// move the probe, so it moves the scaled figures as it moves the measured
// ones.

constexpr double kProbeRefMs = 10.0;  ///< Probe time that scaling maps to.

/// Wall time of the probe, ms: 32k inserts into and 128k lookups in a
/// 512 KiB open-addressing table with keys streamed from a 16 MiB array;
/// 16k inserts into and 64k lookups in a node-based hash map; a sort of 16k
/// short strings.
double ProbeMs() {
  static const std::vector<uint64_t> keys = [] {
    Rng rng(0x9e3779b97f4a7c15ull);
    std::vector<uint64_t> k(size_t{1} << 21);
    for (uint64_t& v : k) v = rng.NextU64() | 1;
    return k;
  }();
  static const std::vector<std::string> words = [] {
    std::vector<std::string> w;
    for (size_t i = 0; i < 16384; ++i) w.push_back("k" + std::to_string(keys[i]));
    return w;
  }();
  constexpr size_t kSlots = size_t{1} << 16;
  std::vector<uint64_t> table(kSlots, 0);
  const int64_t start = MonotonicNanos();
  auto slot = [](uint64_t k) { return (k * 0x9e3779b97f4a7c15ull) >> 48; };
  for (size_t i = 0; i < kSlots / 2; ++i) {
    size_t h = slot(keys[i]);
    while (table[h] != 0) h = (h + 1) & (kSlots - 1);
    table[h] = keys[i];
  }
  uint64_t found = 0;
  for (size_t i = 0; i < 4 * kSlots / 2; ++i) {
    const uint64_t k = keys[(i * 7) & (keys.size() - 1)];
    size_t h = slot(k);
    while (table[h] != 0 && table[h] != k) h = (h + 1) & (kSlots - 1);
    found += table[h] == k;
  }
  std::unordered_map<uint64_t, uint64_t> nodes;
  for (size_t i = 0; i < 16384; ++i) nodes[keys[i] & 0xfffff] = i;
  for (size_t i = 0; i < 65536; ++i) found += nodes.count(keys[i * 5] & 0xfffff);
  std::vector<std::string> sorted = words;
  std::sort(sorted.begin(), sorted.end());
  found += sorted.front().size();
  const double ms = SinceMs(start);
  static volatile uint64_t sink;
  sink = found;
  return ms;
}

// ---- Environment (one set-up) -------------------------------------------------

/// Rebuilds `table` of `data` with the columns named in `replace` swapped
/// for the given vectors (same row count).
void ReplaceColumns(DataSet* data, const std::string& table,
                    const std::map<std::string, ColumnVector>& replace) {
  const ColumnStore* old = data->GetTable(table).ValueOrDie();
  ColumnStore store;
  for (size_t c = 0; c < old->num_columns(); ++c) {
    auto it = replace.find(old->name(c));
    (void)store.AddColumn(old->name(c),
                          it == replace.end() ? old->column(c) : it->second);
  }
  store.Compress(NumericCompressionDefault());
  data->AddTable(table, std::move(store));
}

/// Generated strings read "s<k>", so the string constants of BQ3 match no
/// row. This gives the columns BQ3 filters on TPC-D's values: segment k of
/// c_mktsegment becomes kSegments[k], and region and nation become TPC-D's
/// fixed tables (row i is region or nation i, with its name and region).
void UseTpcdValues(DataSet* data) {
  static const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                          "HOUSEHOLD", "MACHINERY"};
  static const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                         "MIDDLE EAST"};
  static const struct { const char* name; int region; } kNations[] = {
      {"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
      {"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
      {"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
      {"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
      {"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
      {"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
      {"UNITED KINGDOM", 3}, {"UNITED STATES", 1}};

  const ColumnStore* customer = data->GetTable("customer").ValueOrDie();
  const ColumnVector& generated =
      customer->column(customer->ColumnIndex("c_mktsegment"));
  ColumnVector segments(VecType::kString);
  for (size_t i = 0; i < generated.size(); ++i) {
    const int k = std::atoi(generated.StringAt(i).c_str() + 1);
    segments.strings().push_back(kSegments[k % 5]);
  }
  ReplaceColumns(data, "customer", {{"c_mktsegment", segments}});

  ColumnVector region_keys(VecType::kInt64), region_names(VecType::kString);
  for (int i = 0; i < 5; ++i) {
    region_keys.ints().push_back(i);
    region_names.strings().push_back(kRegions[i]);
  }
  ReplaceColumns(data, "region",
                 {{"r_regionkey", region_keys}, {"r_name", region_names}});

  ColumnVector nation_keys(VecType::kInt64), nation_names(VecType::kString),
      nation_regions(VecType::kInt64);
  for (int i = 0; i < 25; ++i) {
    nation_keys.ints().push_back(i);
    nation_names.strings().push_back(kNations[i].name);
    nation_regions.ints().push_back(kNations[i].region);
  }
  ReplaceColumns(data, "nation",
                 {{"n_nationkey", nation_keys},
                  {"n_name", nation_names},
                  {"n_regionkey", nation_regions}});
}

/// Dates always span their whole domain (key_domain >= kDays), so date
/// windows select what they say. tpcd_exec's data gets TPC-D's string
/// values, so its queries return rows.
DataSet MakeData(const Workload& w, const Catalog& catalog, int rows,
                 int key_domain, uint64_t seed) {
  DataGenOptions gen;
  gen.max_rows_per_table = rows;
  gen.domain_cap = key_domain;
  gen.seed = 0x5eedull + seed * 0x100000001b3ull;
  DataSet data = GenerateData(catalog, gen);
  if (w.name == "tpcd_exec") UseTpcdValues(&data);
  return data;
}

MqoOptions BaseOptions(const Workload& w, const std::string& spill_dir) {
  MqoOptions o;
  o.backend = ExecBackend::kVector;
  // One exec thread per client: on a host of a few shared cores, more made
  // batch times depend on scheduling more than on the engine.
  o.exec.num_threads = 1;
  o.exec.mat_spill_dir = spill_dir;
  o.stats_mode = StatsMode::kCollected;
  o.shared_cache_budget_bytes = w.cache_budget;
  return o;
}

struct Env {
  Catalog catalog = MakeTpcdCatalog(1);
  DataSet data;
  MqoOptions options;
  std::unique_ptr<TableStatsRegistry> registry;  // tpcd_exec, dashboard_sql
  std::unique_ptr<MqoSession> session;           // service_mix
  double analyze_ms = 0.0;

  const TableStatsRegistry& stats() const {
    return session ? session->table_stats() : *registry;
  }
};

/// Generates the data and analyzes every table; the session (service_mix)
/// or an external registry (one-shot workloads) holds the statistics.
void BuildEnv(const Workload& w, uint64_t seed, const std::string& spill_dir,
              Env* env) {
  env->data = MakeData(w, env->catalog, w.rows, w.key_domain, seed);
  env->options = BaseOptions(w, spill_dir);
  if (w.name == "service_mix") {
    env->session =
        std::make_unique<MqoSession>(&env->catalog, &env->data, env->options);
  } else {
    env->registry = std::make_unique<TableStatsRegistry>(&env->data);
    env->options.table_stats = env->registry.get();
  }
  const int64_t start = MonotonicNanos();
  for (const std::string& t : env->catalog.TableNames()) env->stats().Get(t);
  env->analyze_ms = SinceMs(start);
}

Result<MqoExecutionOutcome> RunOneShot(const Catalog& catalog,
                                       const Batch& batch, const DataSet& data,
                                       const MqoOptions& options) {
  return batch.sql.empty()
             ? OptimizeAndExecuteBatch(catalog, batch.trees, data, options)
             : OptimizeAndExecuteSqlBatch(catalog, batch.sql, data, options);
}

// ---- Runners -----------------------------------------------------------------

using Runner = std::function<void(const Batch&, BatchRecord*)>;

void FinishFacadeRecord(const Result<MqoExecutionOutcome>& run,
                        BatchRecord* rec) {
  if (!run.ok()) {
    rec->ok = false;
    rec->error = run.status().ToString();
    return;
  }
  const MqoExecutionOutcome& out = run.ValueOrDie();
  rec->ok = true;
  RecordOptimization(out.optimization.result, rec);
  rec->shareable = out.optimization.shareable_nodes;
  rec->classes = out.optimization.dag_classes;
  rec->ops = out.optimization.dag_ops;
  rec->cross_batch_hits = out.cross_batch_hits;
  rec->store = out.store_stats;
  RecordResults(out.results, rec);
}

/// The public entry point the workload's users call.
Runner FacadeRunner(Env* env) {
  return [env](const Batch& batch, BatchRecord* rec) {
    const int64_t start = MonotonicNanos();
    Result<MqoExecutionOutcome> run =
        env->session ? env->session->Run(batch.sql)
                     : RunOneShot(env->catalog, batch, env->data, env->options);
    rec->ms = SinceMs(start);
    FinishFacadeRecord(run, rec);
  };
}

/// State of the facade replica: the same options and statistics, plus (for
/// service_mix) a segment cache and feedback map of its own, configured as
/// MqoSession configures them.
struct Replica {
  Env* env = nullptr;
  const TableStatsRegistry* registry = nullptr;
  std::unique_ptr<TableStatsRegistry> own_registry;
  std::unique_ptr<SharedSegmentCache> cache;
  std::mutex mu;  ///< Guards feedback.
  CardinalityFeedback feedback;
};

void MakeReplica(const Workload& w, Env* env, Replica* r) {
  r->env = env;
  if (!env->session) {
    r->registry = env->registry.get();
    return;
  }
  r->own_registry = std::make_unique<TableStatsRegistry>(&env->data);
  for (const std::string& t : env->catalog.TableNames()) r->own_registry->Get(t);
  r->registry = r->own_registry.get();
  MatStoreOptions cache_options = env->options.exec.mat_store();
  cache_options.budget_bytes = w.cache_budget;
  r->cache = std::make_unique<SharedSegmentCache>(cache_options);
}

/// The facade's EXPLAIN capture after planning: plan rendering and, per
/// chosen class, its estimates and marginal benefit bc(S \ {e}) - bc(S).
void CaptureExplain(Memo* memo, BatchOptimizer* optimizer,
                    const std::set<EqId>& chosen, const ConsolidatedPlan& plan,
                    MqoOutcome* outcome) {
  outcome->consolidated_plan = PlanToString(plan.root_plan);
  for (const auto& m : plan.materialized) {
    outcome->materialized_plans.push_back(PlanToString(m.compute_plan));
  }
  if (chosen.empty()) return;
  const auto expected = ExpectedSegmentReads(*memo, plan);
  std::unordered_map<EqId, uint64_t> fps;
  optimizer->SetIncrementalBase(chosen);
  const double bc_full = optimizer->BestCost(chosen);
  for (EqId eq : chosen) {
    const EqId c = memo->Find(eq);
    MatClassEstimate est;
    est.eq = c;
    est.fingerprint = ClassFingerprint(*memo, c, &fps);
    std::vector<OpId> ops = memo->ClassOps(c);
    if (!ops.empty()) est.label = memo->op(ops.front()).ToString();
    est.est_rows = optimizer->stats()->ClassStats(c).rows;
    auto reads = expected.find(c);
    if (reads != expected.end()) est.expected_reads = reads->second;
    est.footprint_bytes = optimizer->MatFootprintBytes(c);
    std::set<EqId> without = chosen;
    without.erase(eq);
    est.predicted_benefit_ms = optimizer->BestCost(without) - bc_full;
    outcome->class_estimates.push_back(est);
  }
  std::sort(outcome->class_estimates.begin(), outcome->class_estimates.end(),
            [](const MatClassEstimate& a, const MatClassEstimate& b) {
              return a.eq < b.eq;
            });
}

/// The facade's report assembly after execution: estimates joined with the
/// executor's segment telemetry, rendered as EXPLAIN ANALYZE.
std::string AssembleExplain(const ExecResult& executed,
                            const MqoOutcome& optimization) {
  std::unordered_map<int, const SegmentRuntime*> by_eq;
  for (const auto& s : executed.segments) by_eq[s.eq] = &s;
  std::vector<ExplainEntry> entries;
  for (const auto& est : optimization.class_estimates) {
    ExplainEntry entry;
    entry.est = est;
    auto it = by_eq.find(est.eq);
    if (it != by_eq.end()) {
      entry.run = *it->second;
      entry.executed = true;
      entry.realized_saved_ms =
          entry.run.compute_ms *
          static_cast<double>(std::max<int64_t>(entry.run.reads - 1, 0));
    }
    entries.push_back(entry);
  }
  return RenderExplainAnalyze(entries);
}

/// OptimizeAndExecuteBatch's call sequence (and MqoSession::Run's feedback
/// and cache wiring) with a timer around each layer call. It does the
/// facade's EXPLAIN work too, timed apart, so the replica's batch time
/// differs from the facade's only by the timers. With `volcano`, the
/// batch's no-MQO plan is executed afterwards too.
void ReplicaBatch(Replica* r, const Batch& batch, bool volcano,
                  BatchRecord* rec) {
  Env* env = r->env;
  const MqoOptions& options = env->options;
  LayerTimes& t = rec->layers;
  auto fail = [rec](const Status& s) {
    rec->ok = false;
    rec->error = s.ToString();
  };
  const int64_t start = MonotonicNanos();

  std::vector<LogicalExprPtr> queries = batch.trees;
  int64_t t0 = MonotonicNanos();
  for (const std::string& sql : batch.sql) {
    Result<LogicalExprPtr> q = ParseQuery(sql, env->catalog);
    if (!q.ok()) return fail(q.status());
    queries.push_back(std::move(q).ValueOrDie());
  }
  t.parse = SinceMs(t0);

  t0 = MonotonicNanos();
  Memo memo(&env->catalog);
  memo.InsertBatch(queries);
  Result<ExpansionStats> expanded = ExpandMemo(&memo, options.expansion);
  if (!expanded.ok()) return fail(expanded.status());
  t.build = SinceMs(t0);
  rec->classes = expanded.ValueOrDie().classes_after;
  rec->ops = expanded.ValueOrDie().ops_after;

  t0 = MonotonicNanos();
  CardinalityFeedback snapshot;
  BatchOptimizerOptions oo;
  oo.stats.mode = StatsMode::kCollected;
  oo.stats.table_stats = r->registry;
  if (r->cache) {
    {
      std::lock_guard<std::mutex> lock(r->mu);
      snapshot = r->feedback;
    }
    oo.stats.feedback = &snapshot;
    oo.cached_fingerprints = r->cache->FingerprintSnapshot();
  }
  oo.num_threads = options.exec.num_threads > 1 ? options.exec.num_threads : 0;
  BatchOptimizer optimizer(&memo, CostModel(options.cost_params), oo);
  MaterializationProblem problem(&optimizer);
  t.opt_setup = SinceMs(t0);
  rec->shareable = problem.universe_size() +
                   static_cast<int>(problem.admission_refused().size());

  t0 = MonotonicNanos();
  const MqoResult result = RunMarginalGreedy(&problem, options.marginal_options);
  t.select = SinceMs(t0);
  RecordOptimization(result, rec);

  t0 = MonotonicNanos();
  const ConsolidatedPlan plan = optimizer.Plan(result.materialized);
  t.plan = SinceMs(t0);
  rec->costings = optimizer.num_costings();

  t0 = MonotonicNanos();
  MqoOutcome explain;
  CaptureExplain(&memo, &optimizer, result.materialized, plan, &explain);
  t.explain = SinceMs(t0);

  ExecOptions exec = options.exec;
  exec.shared_cache = r->cache.get();
  t0 = MonotonicNanos();
  Result<ExecResult> executed = ExecuteConsolidatedResult(
      ExecBackend::kVector, &memo, &env->data, plan, exec);
  t.exec = SinceMs(t0);
  if (!executed.ok()) return fail(executed.status());
  const ExecResult& out = executed.ValueOrDie();
  t0 = MonotonicNanos();
  AssembleExplain(out, explain);
  t.explain += SinceMs(t0);
  if (r->cache) {
    std::lock_guard<std::mutex> lock(r->mu);
    r->feedback.MergeFrom(out.feedback);
  }
  t.wall = SinceMs(start);
  rec->ms = t.wall;
  rec->ok = true;
  rec->cross_batch_hits = out.cross_batch_hits;
  rec->store = out.store_stats;
  RecordResults(out.results, rec);
  if (!volcano) return;

  const ConsolidatedPlan no_mqo = optimizer.Plan({});
  t0 = MonotonicNanos();
  Result<ExecResult> baseline = ExecuteConsolidatedResult(
      ExecBackend::kVector, &memo, &env->data, no_mqo, options.exec);
  t.volcano_exec = SinceMs(t0);
  if (!baseline.ok()) return fail(baseline.status());
}

// ---- Closed loop --------------------------------------------------------------

struct LoopResult {
  std::vector<BatchRecord> records;  ///< Ordered by (client, index).
  double elapsed_s = 0.0;
};

/// Runs `w.clients` closed-loop clients. With `count` > 0 each client
/// submits exactly `count` batches; otherwise clients stop submitting once
/// `seconds` have passed, and each brackets every batch with host probes.
LoopResult ClosedLoop(const Workload& w, const BatchSource& source,
                      const Runner& run, int count, double seconds) {
  std::vector<std::vector<BatchRecord>> per_client(w.clients);
  const bool probe = count == 0;
  const int64_t start = MonotonicNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      double before = probe ? ProbeMs() : 0.0;
      for (int b = 0;; ++b) {
        if (count > 0 ? b >= count : MonotonicNanos() >= deadline) break;
        const Batch batch = source.Make(c, b);
        BatchRecord rec;
        rec.client = c;
        rec.index = b;
        rec.key = batch.key;
        rec.query_keys = batch.query_keys;
        run(batch, &rec);
        if (probe) {
          const double after = ProbeMs();
          rec.probe_ms = 0.5 * (before + after);
          before = after;
        }
        per_client[c].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.elapsed_s = NanosToSeconds(MonotonicNanos() - start);
  for (auto& records : per_client) {
    for (auto& rec : records) out.records.push_back(std::move(rec));
  }
  return out;
}

// ---- Output checks ------------------------------------------------------------

/// The row interpreter against the measured configuration, one batch of the
/// workload's shape on w.check_rows rows per table. Returns an empty string
/// when every result agrees and they hold at least one row.
std::string ShapeCheck(const Workload& w, uint64_t seed,
                       const BatchSource& source, const std::string& spill_dir) {
  const Catalog catalog = MakeTpcdCatalog(1);
  const DataSet data = MakeData(w, catalog, w.check_rows, kDays, seed);
  TableStatsRegistry registry(&data);
  MqoOptions measured = BaseOptions(w, spill_dir);
  measured.table_stats = &registry;
  MqoOptions reference = measured;
  reference.backend = ExecBackend::kRow;
  reference.algorithm = MqoOptions::Algorithm::kVolcano;
  const Batch batch = source.Make(0, 0);
  Result<MqoExecutionOutcome> got = RunOneShot(catalog, batch, data, measured);
  Result<MqoExecutionOutcome> want = RunOneShot(catalog, batch, data, reference);
  if (!got.ok()) return got.status().ToString();
  if (!want.ok()) return want.status().ToString();
  const auto& a = got.ValueOrDie().results;
  const auto& b = want.ValueOrDie().results;
  if (a.size() != b.size()) return "result count differs from the row engine";
  size_t rows = 0;
  for (const NamedRows& r : b) rows += r.rows.size();
  std::fprintf(stderr, "row-engine check: %zu rows on %d rows per table\n",
               rows, w.check_rows);
  if (rows == 0) return "the row engine returned no rows; nothing was checked";
  for (size_t j = 0; j < a.size(); ++j) {
    if (HashResult(a[j]) != HashResult(b[j])) {
      return "query " + std::to_string(j) + " differs from the row engine";
    }
  }
  return "";
}

/// The first result of every distinct query is compared with a no-MQO run
/// of that query alone (in the batches w.reference_every samples); every
/// later result must hash-equal it. Marks wrong batches failed and returns
/// the number of reference runs.
int CheckResults(const Workload& w, const BatchSource& source, Env* env,
                 std::vector<BatchRecord>* records) {
  MqoOptions reference = env->options;
  reference.algorithm = MqoOptions::Algorithm::kVolcano;
  reference.table_stats = &env->stats();
  std::unordered_map<uint64_t, uint64_t> expected;
  for (BatchRecord& rec : *records) {
    if (!rec.ok) continue;
    const bool sampled = rec.index < 16 || rec.index % w.reference_every == 0;
    std::unique_ptr<Batch> batch;
    for (size_t j = 0; j < rec.query_keys.size() && rec.ok; ++j) {
      auto it = expected.find(rec.query_keys[j]);
      if (it == expected.end()) {
        if (!sampled) continue;
        if (!batch) {
          batch = std::make_unique<Batch>(source.Make(rec.client, rec.index));
        }
        Result<MqoExecutionOutcome> r =
            RunOneShot(env->catalog, batch->Single(j), env->data, reference);
        if (!r.ok() || r.ValueOrDie().results.size() != 1) {
          rec.ok = false;
          rec.error = "reference run failed: " +
                      (r.ok() ? std::string("no result") : r.status().ToString());
          break;
        }
        it = expected
                 .emplace(rec.query_keys[j],
                          HashResult(r.ValueOrDie().results.front()))
                 .first;
      }
      if (rec.hashes[j] != it->second) {
        rec.ok = false;
        rec.error = "query " + std::to_string(j) + " differs from its reference";
      }
    }
  }
  return static_cast<int>(expected.size());
}

bool SameWork(const BatchRecord& a, const BatchRecord& b) {
  return a.key == b.key && a.cost_ratio == b.cost_ratio &&
         a.bc_misses == b.bc_misses && a.function_evals == b.function_evals &&
         a.materialized == b.materialized && a.shareable == b.shareable &&
         a.classes == b.classes && a.ops == b.ops;
}

void ReportDrift(const BatchRecord& a, const BatchRecord& b) {
  std::fprintf(stderr,
               "drift at client %d batch %d: ratio %.17g/%.17g misses "
               "%lld/%lld evals %lld/%lld materialized %d/%d hits %lld/%lld\n",
               b.client, b.index, a.cost_ratio, b.cost_ratio,
               static_cast<long long>(a.bc_misses),
               static_cast<long long>(b.bc_misses),
               static_cast<long long>(a.function_evals),
               static_cast<long long>(b.function_evals), a.materialized,
               b.materialized, static_cast<long long>(a.cross_batch_hits),
               static_cast<long long>(b.cross_batch_hits));
}

/// Untraced mode: every batch with a repeated key must reproduce the first
/// occurrence's plan cost and work counters. Returns drifted batches.
int CheckRepeats(const std::vector<BatchRecord>& records) {
  std::unordered_map<uint64_t, const BatchRecord*> first;
  int drift = 0;
  for (const BatchRecord& rec : records) {
    if (!rec.ok) continue;
    auto [it, inserted] = first.emplace(rec.key, &rec);
    if (!inserted && !SameWork(*it->second, rec)) {
      ReportDrift(*it->second, rec);
      ++drift;
    }
  }
  return drift;
}

/// Traced mode: the facade pass and the replica pass ran the same batches
/// from equally warmed state; optimizations, cache hits and results must
/// agree batch by batch.
int ComparePasses(const std::vector<BatchRecord>& facade,
                  const std::vector<BatchRecord>& replica) {
  if (facade.size() != replica.size()) return 1;
  int drift = 0;
  for (size_t i = 0; i < facade.size(); ++i) {
    const BatchRecord& a = facade[i];
    const BatchRecord& b = replica[i];
    if (!a.ok || !b.ok) continue;
    if (!SameWork(a, b) || a.cross_batch_hits != b.cross_batch_hits ||
        a.hashes != b.hashes) {
      ReportDrift(a, b);
      ++drift;
    }
  }
  return drift;
}

// ---- Statistics and output -----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double MedianOf(const std::vector<BatchRecord>& records,
                double (*field)(const BatchRecord&)) {
  std::vector<double> v;
  for (const BatchRecord& r : records) {
    if (r.ok) v.push_back(field(r));
  }
  return Median(v);
}

/// Peak resident set of this process (Linux reports ru_maxrss in KiB).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += "\"" + name + "\": " + buf;
  }
  return out + "}";
}

struct Report {
  int attempted = 0;
  int failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> exact;
  std::map<std::string, double> info;
};

void CountOutcomes(const std::vector<BatchRecord>& records, Report* report) {
  for (const BatchRecord& r : records) {
    ++report->attempted;
    if (!r.ok) {
      ++report->failed;
      std::fprintf(stderr, "batch %d/%d failed: %s\n", r.client, r.index,
                   r.error.c_str());
    }
  }
}

/// The shape check counts as one more attempted batch.
void CountShapeCheck(const std::string& error, Report* report) {
  ++report->attempted;
  if (!error.empty()) {
    ++report->failed;
    std::fprintf(stderr, "row-engine check failed: %s\n", error.c_str());
  }
}

// ---- Set-up -------------------------------------------------------------------

/// Warms the one-shot workloads with their distinct batches. service_mix
/// runs serial warm-up rounds (hot pair + a warm-up fresh window) and
/// requires the last two rounds to hit the cache equally often, so measured
/// batches start from a settled hot set.
Status Warmup(const Workload& w, const BatchSource& source, const Runner& run,
              SharedSegmentCache* cache) {
  int64_t prev_hits = -1;
  bool settled = cache == nullptr;
  for (int r = 0; r < w.warmup_batches; ++r) {
    const Batch batch = source.Warmup(r);
    BatchRecord rec;
    rec.query_keys = batch.query_keys;
    const SegmentCacheStats before = cache ? cache->stats() : SegmentCacheStats{};
    run(batch, &rec);
    if (!rec.ok) return Status::Internal("warm-up batch failed: " + rec.error);
    if (!cache) continue;
    const SegmentCacheStats after = cache->stats();
    const int64_t hits = after.hits - before.hits;
    const int64_t inserts = after.inserts - before.inserts;
    std::fprintf(stderr, "warm-up round %d: %lld hits, %lld inserts\n", r,
                 static_cast<long long>(hits), static_cast<long long>(inserts));
    settled = hits > 0 && hits == prev_hits;
    prev_hits = hits;
  }
  if (!settled) return Status::Internal("segment cache did not settle in warm-up");
  return Status::OK();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spill_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--spill-dir") a->spill_dir = v;
    else return false;
  }
  return !a->workload.empty() && !a->spill_dir.empty() && a->seconds > 0.0;
}

// ---- Modes --------------------------------------------------------------------

int RunUntraced(const Workload& w, const Args& args, const BatchSource& source,
                Report* report) {
  // Set-up — data generation, statistics analysis, warm-up — repeated; the
  // last environment serves the measured loop.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    const int64_t start = MonotonicNanos();
    env = std::make_unique<Env>();
    BuildEnv(w, args.seed, args.spill_dir, env.get());
    Status warm = Warmup(w, source, FacadeRunner(env.get()),
                         env->session ? env->session->segment_cache() : nullptr);
    if (!warm.ok()) {
      std::fprintf(stderr, "%s\n", warm.ToString().c_str());
      return 1;
    }
    setup_s.push_back(NanosToSeconds(MonotonicNanos() - start));
  }

  LoopResult loop =
      ClosedLoop(w, source, FacadeRunner(env.get()), 0, args.seconds);
  const double peak_rss = PeakRssMb();

  CountShapeCheck(ShapeCheck(w, args.seed, source, args.spill_dir), report);
  const int references = CheckResults(w, source, env.get(), &loop.records);
  const int drift = CheckRepeats(loop.records);
  CountOutcomes(loop.records, report);

  // The plan-quality guard averages a fixed set of batches — the first
  // `plan_batches` of every client — so it repeats exactly for a seed.
  const int plan_batches = 16;
  double ratio_sum = 0.0;
  int ratio_n = 0;
  int64_t queries = 0;
  std::vector<double> ms, scaled_ms, probe_ms;
  double busy_ms = 0.0, scaled_busy_ms = 0.0;  // summed over clients
  for (const BatchRecord& r : loop.records) {
    if (!r.ok) continue;
    const double scale = kProbeRefMs / r.probe_ms;
    ms.push_back(r.ms);
    probe_ms.push_back(r.probe_ms);
    scaled_ms.push_back(r.ms * scale);
    busy_ms += r.ms;
    scaled_busy_ms += r.ms * scale;
    queries += static_cast<int64_t>(r.query_keys.size());
    if (r.index < plan_batches) {
      ratio_sum += r.cost_ratio;
      ++ratio_n;
    }
  }
  if (ratio_n != plan_batches * w.clients) {
    std::fprintf(stderr, "too few batches for the plan-cost sample (%d of %d)\n",
                 ratio_n, plan_batches * w.clients);
    return 1;
  }
  // Throughput per second of client time spent in batches (probes and batch
  // generation excluded): each client is busy for busy_ms / clients.
  auto per_s = [&](double summed_ms) {
    return summed_ms > 0.0 ? 1e3 * w.clients * static_cast<double>(queries) /
                                 summed_ms
                           : 0.0;
  };
  const double ratio = ratio_sum / ratio_n;
  auto& m = report->metrics;
  m["scaled_batch_ms_p50"] = Quantile(scaled_ms, 0.5);
  m["scaled_batch_ms_p90"] = Quantile(scaled_ms, 0.9);
  m["scaled_queries_per_s"] = per_s(scaled_busy_ms);
  m["plan_cost_ratio"] = ratio;
  m["setup_s"] = Median(setup_s);
  m["peak_rss_mb"] = peak_rss;
  report->exact["plan_cost_ratio"] = ratio;
  auto& info = report->info;
  info["batch_ms_p50"] = Quantile(ms, 0.5);
  info["batch_ms_p90"] = Quantile(ms, 0.9);
  info["queries_per_s"] = per_s(busy_ms);
  info["probe_ms_p50"] = Median(probe_ms);
  info["samples"] = static_cast<double>(ms.size());
  info["elapsed_s"] = loop.elapsed_s;
  info["reference_queries"] = references;
  if (drift > 0) {
    std::fprintf(stderr, "%d repeated batches drifted from their first run\n",
                 drift);
    return 3;
  }
  return 0;
}

int RunTraced(const Workload& w, const Args& args, const BatchSource& source,
              Report* report) {
  Env env;
  BuildEnv(w, args.seed, args.spill_dir, &env);
  SharedSegmentCache* session_cache =
      env.session ? env.session->segment_cache() : nullptr;
  Status warm = Warmup(w, source, FacadeRunner(&env), session_cache);
  if (!warm.ok()) {
    std::fprintf(stderr, "%s\n", warm.ToString().c_str());
    return 1;
  }

  // The replica gets its own statistics, cache and feedback, warmed alike.
  Replica replica;
  MakeReplica(w, &env, &replica);
  const Runner facade_run = FacadeRunner(&env);
  const Runner replica_run = [&replica](const Batch& b, BatchRecord* rec) {
    ReplicaBatch(&replica, b, /*volcano=*/false, rec);
  };
  warm = Warmup(w, source, replica_run, replica.cache.get());
  if (!warm.ok()) {
    std::fprintf(stderr, "replica: %s\n", warm.ToString().c_str());
    return 1;
  }

  // Each client runs every batch through the facade (the wall time users
  // see) and through the replica, alternating which goes first, so drift in
  // host speed hits both passes alike.
  SharedSegmentCache* cache = replica.cache.get();
  const SegmentCacheStats fc_before =
      session_cache ? session_cache->stats() : SegmentCacheStats{};
  const SegmentCacheStats rc_before = cache ? cache->stats() : SegmentCacheStats{};
  const MatStoreStats rs_before = cache ? cache->store_stats() : MatStoreStats{};
  LoopResult traced;
  traced.records.resize(static_cast<size_t>(w.clients * w.trace_batches));
  const Runner paired = [&](const Batch& b, BatchRecord* rec) {
    BatchRecord& twin = traced.records[rec->client * w.trace_batches + rec->index];
    twin.client = rec->client;
    twin.index = rec->index;
    twin.key = rec->key;
    twin.query_keys = rec->query_keys;
    if (rec->index % 2 == 0) {
      facade_run(b, rec);
      replica_run(b, &twin);
    } else {
      replica_run(b, &twin);
      facade_run(b, rec);
    }
  };
  LoopResult facade = ClosedLoop(w, source, paired, w.trace_batches, 0.0);
  const SegmentCacheStats fc_after =
      session_cache ? session_cache->stats() : SegmentCacheStats{};
  const SegmentCacheStats rc_after = cache ? cache->stats() : SegmentCacheStats{};
  MatStoreStats storage =
      cache ? Delta(cache->store_stats(), rs_before) : MatStoreStats{};

  // The no-MQO plans run serially in a pass of their own, next to an MQO
  // execution of the same batch without the cross-batch cache, so neither
  // competes with another client's batch.
  Replica plain;
  plain.env = &env;
  plain.registry = &env.stats();
  std::vector<BatchRecord> baseline(traced.records.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    const BatchRecord& r = traced.records[i];
    baseline[i].query_keys = r.query_keys;
    ReplicaBatch(&plain, source.Make(r.client, r.index), /*volcano=*/true,
                 &baseline[i]);
  }
  CountOutcomes(baseline, report);

  CountShapeCheck(ShapeCheck(w, args.seed, source, args.spill_dir), report);
  int references = CheckResults(w, source, &env, &facade.records);
  references += CheckResults(w, source, &env, &traced.records);
  int drift = ComparePasses(facade.records, traced.records);
  if (fc_after.hits - fc_before.hits != rc_after.hits - rc_before.hits ||
      fc_after.inserts - fc_before.inserts != rc_after.inserts - rc_before.inserts) {
    std::fprintf(stderr, "segment cache traffic differs between passes\n");
    ++drift;
  }
  CountOutcomes(facade.records, report);
  CountOutcomes(traced.records, report);

  int64_t classes = 0, ops = 0, misses = 0, costings = 0, evals = 0;
  int64_t shareable = 0, materialized = 0, rows = 0;
  for (const BatchRecord& r : traced.records) {
    classes += r.classes;
    ops += r.ops;
    misses += r.bc_misses;
    costings += r.costings;
    evals += r.function_evals;
    shareable += r.shareable;
    materialized += r.materialized;
    rows += r.result_rows;
    Accumulate(r.store, &storage);
  }
  const auto& rec = traced.records;
  const double parse = MedianOf(rec, [](const BatchRecord& r) { return r.layers.parse; });
  const double build = MedianOf(rec, [](const BatchRecord& r) { return r.layers.build; });
  const double opt_setup = MedianOf(rec, [](const BatchRecord& r) { return r.layers.opt_setup; });
  const double select = MedianOf(rec, [](const BatchRecord& r) { return r.layers.select; });
  const double plan = MedianOf(rec, [](const BatchRecord& r) { return r.layers.plan; });
  const double exec = MedianOf(rec, [](const BatchRecord& r) { return r.layers.exec; });
  const double plain_exec = MedianOf(baseline, [](const BatchRecord& r) { return r.layers.exec; });
  const double volcano = MedianOf(baseline, [](const BatchRecord& r) { return r.layers.volcano_exec; });
  const double replica_ms = MedianOf(rec, [](const BatchRecord& r) { return r.layers.wall; });
  const double facade_ms = MedianOf(facade.records, [](const BatchRecord& r) { return r.ms; });

  const int64_t lookups = rc_after.lookups - rc_before.lookups;
  const int64_t hits = rc_after.hits - rc_before.hits;
  auto& m = report->metrics;
  m["parser.parse_ms"] = parse;
  m["lqdag.build_ms"] = build;
  m["lqdag.classes"] = static_cast<double>(classes);
  m["lqdag.ops"] = static_cast<double>(ops);
  m["stats.analyze_ms"] = env.analyze_ms;
  m["optimizer.setup_ms"] = opt_setup;
  m["optimizer.select_ms"] = select;
  m["optimizer.plan_ms"] = plan;
  m["optimizer.bc_misses"] = static_cast<double>(misses);
  m["optimizer.costings"] = static_cast<double>(costings);
  m["optimizer.function_evals"] = static_cast<double>(evals);
  m["optimizer.shareable"] = static_cast<double>(shareable);
  m["optimizer.materialized"] = static_cast<double>(materialized);
  m["vexec.exec_ms"] = exec;
  m["vexec.volcano_exec_ms"] = volcano;
  m["vexec.realized_cost_ratio"] = volcano > 0.0 ? plain_exec / volcano : 0.0;
  m["vexec.result_rows"] = static_cast<double>(rows);
  m["storage.store_puts"] = static_cast<double>(storage.puts);
  m["storage.evictions"] = static_cast<double>(storage.evictions);
  m["storage.spill_writes"] = static_cast<double>(storage.spill_writes);
  m["storage.reloads"] = static_cast<double>(storage.reloads);
  m["storage.bytes_spilled"] = static_cast<double>(storage.bytes_spilled);
  m["storage.bytes_reloaded"] = static_cast<double>(storage.bytes_reloaded);
  m["segment_cache.lookups"] = static_cast<double>(lookups);
  m["segment_cache.hits"] = static_cast<double>(hits);
  m["segment_cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  m["segment_cache.inserts"] =
      static_cast<double>(rc_after.inserts - rc_before.inserts);
  m["segment_cache.insert_races_lost"] =
      static_cast<double>(rc_after.insert_races_lost - rc_before.insert_races_lost);
  m["segment_cache.bytes_used"] =
      cache ? static_cast<double>(cache->bytes_used()) : 0.0;
  // Per replica batch: its wall time minus its timed layers — feedback
  // snapshot and merge, EXPLAIN capture and report, optimizer and memo
  // bookkeeping between the calls.
  m["session.unattributed_ms"] = MedianOf(rec, [](const BatchRecord& r) {
    const LayerTimes& t = r.layers;
    return t.wall - (t.parse + t.build + t.opt_setup + t.select + t.plan + t.exec);
  });
  // The facade pass is the untraced path, run batch by batch next to the
  // traced replica, which does the same work plus the layer timers.
  m["session.trace_overhead_pct"] =
      facade_ms > 0.0 ? 100.0 * (replica_ms / facade_ms - 1.0) : 0.0;

  for (const char* name :
       {"lqdag.classes", "lqdag.ops", "optimizer.bc_misses",
        "optimizer.costings", "optimizer.function_evals", "optimizer.shareable",
        "optimizer.materialized", "vexec.result_rows", "segment_cache.lookups",
        "segment_cache.hits", "segment_cache.inserts"}) {
    report->exact[name] = m[name];
  }
  report->info["facade_batch_ms_p50"] = facade_ms;
  report->info["replica_batch_ms_p50"] = replica_ms;
  report->info["replica_explain_ms_p50"] =
      MedianOf(rec, [](const BatchRecord& r) { return r.layers.explain; });
  report->info["traced_batches"] = static_cast<double>(traced.records.size());
  report->info["reference_queries"] = references;
  if (drift > 0) {
    std::fprintf(stderr, "%d batches drifted between the two passes\n", drift);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &w)) {
    std::fprintf(stderr,
                 "usage: mqo_perfbench --workload "
                 "tpcd_exec|dashboard_sql|service_mix --seed N --seconds S "
                 "--trace 0|1 --spill-dir DIR\n");
    return 2;
  }
  const BatchSource source(w, args.seed);
  Report report;
  const int code = args.trace ? RunTraced(w, args, source, &report)
                              : RunUntraced(w, args, source, &report);
  if (code != 0) return code;
  std::fprintf(stderr, "%s: %d attempted, %d failed\n", w.name.c_str(),
               report.attempted, report.failed);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s, \"exact\": %s, \"info\": %s}\n",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed, JsonObject(report.metrics).c_str(),
              JsonObject(report.exact).c_str(),
              JsonObject(report.info).c_str());
  return 0;
}
