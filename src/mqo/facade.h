// One-call convenience facade: SQL batch in, consolidated MQO plan out.
//
//   Catalog catalog = MakeTpcdCatalog(1);
//   auto outcome = OptimizeSqlBatch(catalog, {"SELECT ...", "SELECT ..."});
//   outcome.ValueOrDie().Print();
//
// Wires together the parser, memo, transformation rules, batch optimizer and
// the MarginalGreedy algorithm with sensible defaults; every knob is still
// reachable through the lower layers.

#ifndef MQO_MQO_FACADE_H_
#define MQO_MQO_FACADE_H_

#include <atomic>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cost/stats.h"
#include "lqdag/rules.h"
#include "mqo/env_overrides.h"
#include "mqo/mqo_algorithms.h"
#include "obs/explain.h"
#include "obs/obs.h"
#include "parser/parser.h"
#include "storage/segment_cache.h"
#include "vexec/backend.h"

namespace mqo {

/// Options for OptimizeSqlBatch / OptimizeBatch. The entry points fill the
/// knobs left unset from the environment (ResolveMqoOptions).
struct MqoOptions {
  CostParams cost_params;
  /// Which selection algorithm to run.
  enum class Algorithm { kMarginalGreedy, kGreedy, kVolcano } algorithm =
      Algorithm::kMarginalGreedy;
  MarginalGreedyMqoOptions marginal_options;
  ExpansionOptions expansion;
  /// Which engine OptimizeAndExecute* runs the consolidated plan on. The
  /// row interpreter (kRow) is the slower reference engine.
  ExecBackend backend = ExecBackend::kVector;
  /// Vectorized-engine execution knobs: `exec.num_threads` > 1 runs every
  /// pipeline — scans, filters, join build/probe, aggregation — morsel-
  /// parallel (results are identical for every value). The row engine is
  /// serial but honours the store-governance knobs below. The same knob
  /// also fans the optimizer's greedy candidate evaluations across the
  /// worker pool (BatchOptimizerOptions::num_threads); plans, picks, and
  /// costs stay bit-identical at every thread count.
  ExecOptions exec;
  /// Byte budget of the executors' materialized-segment store; 0 =
  /// unlimited. A non-zero budget flows to both sides of the system: the
  /// optimizer (cost_params.mat_budget_bytes — admission control plus a
  /// spill penalty on oversized materialized sets) and the executors
  /// (exec.mat_budget_bytes — eviction and disk spill at run time).
  /// Explicitly-set cost_params/exec budgets win over this convenience knob.
  size_t mat_budget_bytes = 0;
  /// Statistics source of the optimizer (cost/stats.h): kCatalogGuess
  /// reproduces the paper-exact estimates; kCollected analyzes the executed
  /// DataSet (lazily, on first optimization) into sampled histograms and
  /// distinct sketches. Unset = MQO_STATS_MODE, else kCatalogGuess.
  /// Collection needs data, so OptimizeSqlBatch/OptimizeBatch use kCollected
  /// only when `table_stats` is supplied.
  std::optional<StatsMode> stats_mode;
  /// Externally-owned collected statistics to reuse across calls (an
  /// MqoSession shares one registry so tables analyze once per session).
  /// When null and the statistics mode is kCollected, the execute paths
  /// analyze into a call-local registry.
  const TableStatsRegistry* table_stats = nullptr;
  /// Observed cardinalities from earlier executions (MqoExecutionOutcome::
  /// feedback); matched by structural fingerprint, they override the
  /// estimator's row counts so this optimization sees reality.
  const CardinalityFeedback* feedback = nullptr;
  /// Observability (obs/obs.h): metrics and tracing for the whole
  /// optimize-and-execute run (off unless enabled here or by MQO_METRICS /
  /// MQO_TRACE / MQO_TRACE_FILE). When trace_path is set the execute paths
  /// write the Chrome trace JSON there after the batch.
  ObsOptions obs;
  /// Cross-batch semantic segment cache (MqoSession only): segments
  /// materialized by one batch are served — by structural class fingerprint —
  /// to later and concurrent batches of the same session, and the optimizer
  /// treats already-cached classes as zero-cost materialization candidates.
  /// Correctness is unaffected: a cached segment is only served when its
  /// fingerprint and the versions of every base table it was computed from
  /// still match (storage/segment_cache.h).
  bool shared_segment_cache = true;
  /// Byte budget of the session's one segment store — cached segments and
  /// in-flight runs' segments alike; 0 falls back to the executor store
  /// budget (exec.mat_budget_bytes, as filled from mat_budget_bytes or
  /// MQO_MAT_BUDGET_BYTES), which unset means unlimited.
  size_t shared_cache_budget_bytes = 0;
};

/// What the facade entry points run with: the options with every unset knob
/// filled, plus the optimizer's worker count (exec.num_threads when > 1,
/// else MQO_OPT_THREADS, else 1).
struct ResolvedMqoOptions {
  MqoOptions options;
  int optimizer_threads = 1;
};

/// Spreads mat_budget_bytes to the optimizer's and the stores' unset
/// budgets, then fills the remaining unset knobs from `env` (see
/// mqo/env_overrides.h). Explicit values always win.
ResolvedMqoOptions ResolveMqoOptions(const MqoOptions& options,
                                     const EnvOverrides& env);

/// Result of a facade optimization.
struct MqoOutcome {
  MqoResult result;                    ///< Costs, chosen nodes, timings.
  std::string consolidated_plan;       ///< Rendered root plan.
  std::vector<std::string> materialized_plans;  ///< One per materialized node.
  int dag_classes = 0;
  int dag_ops = 0;
  int shareable_nodes = 0;   ///< Shareable nodes in the DAG (budget-independent).
  /// Shareable nodes the budget's admission control refused (0 without a
  /// budget); the algorithms ran over shareable_nodes − admission_refused.
  int admission_refused = 0;
  /// Statistics source the optimization actually ran with (kCollected
  /// degraded to kCatalogGuess when no data/registry was available).
  StatsMode stats_mode = StatsMode::kCatalogGuess;
  /// Optimizer-side snapshot of every chosen materialization (estimated
  /// rows, expected reads, footprint, per-class predicted benefit), eq-
  /// sorted. The execute paths join these with runtime telemetry into the
  /// EXPLAIN ANALYZE report.
  std::vector<MatClassEstimate> class_estimates;

  /// Writes a human-readable report to `os`.
  void Print(std::ostream& os) const;
  /// Same, to std::cout.
  void Print() const;
};

/// Parses each SQL string against `catalog`, builds and expands the combined
/// LQDAG, and runs the selected MQO algorithm. Fails on the first parse or
/// bind error.
Result<MqoOutcome> OptimizeSqlBatch(const Catalog& catalog,
                                    const std::vector<std::string>& sql_batch,
                                    const MqoOptions& options = {});

/// Same, starting from already-built logical trees.
Result<MqoOutcome> OptimizeBatch(const Catalog& catalog,
                                 const std::vector<LogicalExprPtr>& queries,
                                 const MqoOptions& options = {});

/// Result of a facade optimize-and-execute run.
struct MqoExecutionOutcome {
  MqoOutcome optimization;
  ExecBackend backend = ExecBackend::kVector;  ///< Engine that ran the plan.
  std::vector<NamedRows> results;  ///< One per query, canonicalized.
  /// Observed cardinalities of the run's materialized segments (keyed by
  /// structural fingerprint). Pass as MqoOptions::feedback — or run batches
  /// through an MqoSession — so later optimizations estimate against
  /// reality.
  CardinalityFeedback feedback;
  /// Segment-store accounting of the run (hits, evictions, spill traffic).
  /// An MqoSession run owns no store and reports zeros here: its traffic is
  /// in the session store, segment_cache()->store_stats().
  MatStoreStats store_stats;
  /// Per materialized class: the optimizer's estimate joined with what the
  /// executor measured, eq-sorted. Empty when nothing was materialized.
  std::vector<ExplainEntry> explain;
  /// RenderExplainAnalyze(explain): estimated vs actual rows, expected vs
  /// actual reads, predicted vs realized benefit, per class plus totals.
  std::string explain_analyze;
  /// Chrome trace_event JSON of the run (empty unless tracing is on). Load
  /// in chrome://tracing or Perfetto.
  std::string trace_json;
  /// MetricsRegistry::TextReport() of the run (empty unless metrics on).
  std::string metrics_report;
  /// Session-issued batch id (0 outside an MqoSession). Tags the run's trace
  /// scope — each batch exports into its own Chrome process lane — and the
  /// per-batch trace file suffix of concurrent session runs.
  uint64_t batch_id = 0;
  /// Materializations this run served from the session's cross-batch segment
  /// cache instead of computing (0 without a session or shared cache).
  int64_t cross_batch_hits = 0;
};

/// Optimizes the batch and executes the consolidated plan against `data`
/// with the engine selected by `options.backend`.
Result<MqoExecutionOutcome> OptimizeAndExecuteSqlBatch(
    const Catalog& catalog, const std::vector<std::string>& sql_batch,
    const DataSet& data, const MqoOptions& options = {});

/// Same, starting from already-built logical trees.
Result<MqoExecutionOutcome> OptimizeAndExecuteBatch(
    const Catalog& catalog, const std::vector<LogicalExprPtr>& queries,
    const DataSet& data, const MqoOptions& options = {});

/// A multi-batch optimization session over one catalog + dataset: collected
/// statistics are shared across batches (each table analyzes once, lazily),
/// every batch's observed materialized-segment cardinalities feed the
/// next batch's optimization — re-seeding row estimates, and through them
/// the footprints, spill penalties and eviction weights the memory-governed
/// store is driven by — and segments materialized by one batch are served to
/// later batches from a shared semantic cache, keyed by structural class
/// fingerprint. The closed loop of optimize → execute → observe.
///
///   MqoSession session(&catalog, &data, options);
///   auto first  = session.Run(batch1);   // estimates from stats collection
///   auto second = session.Run(batch2);   // + observed cardinalities and
///                                        //   cached segments of run 1
///
/// Run is safe to call from concurrent client threads: the shared state
/// (statistics registry, feedback, segment cache) is internally synchronized,
/// each run gets its own memo and executor — its segments live in the
/// session's one store, under shared_cache_budget_bytes — and every run is
/// issued a batch id that scopes its trace export. Results are bag-equal to
/// running the same batches serially in any order.
class MqoSession {
 public:
  /// `catalog` and `data` must outlive the session. The environment
  /// overrides are applied to `options` here, once; Run does not read them.
  MqoSession(const Catalog* catalog, const DataSet* data,
             MqoOptions options = {});

  /// Optimizes and executes one SQL batch with the session's accumulated
  /// statistics, feedback and cached segments, then folds the run's
  /// observations (and freshly materialized segments) back in.
  Result<MqoExecutionOutcome> Run(const std::vector<std::string>& sql_batch);

  /// Same, starting from already-built logical trees.
  Result<MqoExecutionOutcome> Run(const std::vector<LogicalExprPtr>& queries);

  /// Snapshot of the cardinalities observed so far (across every Run).
  CardinalityFeedback feedback() const {
    std::lock_guard<std::mutex> lock(mu_);
    return feedback_;
  }

  /// The session's collected-statistics registry (internally synchronized).
  const TableStatsRegistry& table_stats() const { return registry_; }

  /// The session's cross-batch segment cache; null when
  /// MqoOptions::shared_segment_cache is false.
  SharedSegmentCache* segment_cache() { return cache_.get(); }
  const SharedSegmentCache* segment_cache() const { return cache_.get(); }

  /// Session-lifetime observability scope: per-run wall times land in the
  /// "session.run_ms" timing metric (log-spaced histogram → percentiles via
  /// MetricsRegistry::QuantileMs), and after each run the session store's
  /// and segment cache's running totals are exported here
  /// (ExportStorageStats). Null when observability is off.
  ObsContext* session_obs() {
    return session_obs_.any_enabled() ? &session_obs_ : nullptr;
  }

  /// Mutation hook for one base table (append, in-place update): drops its
  /// collected statistics, every cached segment computed from it and the
  /// observed cardinalities (feedback is keyed by class fingerprint, not by
  /// table, so all of it goes), so the next lookup re-analyzes, the next
  /// estimate comes from the new data and the next materialization
  /// recomputes. The call is internally synchronized and safe while runs
  /// are in flight: they keep the statistics they already fetched, segments
  /// they publish carry the table versions they started with, and their
  /// feedback is dropped instead of merged. The mutation it announces is
  /// the caller's and is not synchronized: runs read `data` in place, so
  /// change a table only while no Run is in flight, and call this before
  /// the next Run starts.
  void InvalidateTable(const std::string& table);

  /// Data-regeneration hook: drops collected statistics, observed
  /// cardinalities and cached segments (they describe data that no longer
  /// exists). Call quiesced (no Run in flight).
  void InvalidateStats();

 private:
  const Catalog* catalog_;
  const DataSet* data_;
  ResolvedMqoOptions resolved_;
  /// Declared before cache_: the cache's store reports into this scope.
  ObsContext session_obs_;
  TableStatsRegistry registry_;
  std::unique_ptr<SharedSegmentCache> cache_;
  mutable std::mutex mu_;  ///< Guards feedback_ and feedback_epoch_.
  CardinalityFeedback feedback_;
  /// Bumped by every invalidation; a run merges its feedback only if none
  /// happened since it took its snapshot.
  uint64_t feedback_epoch_ = 0;
  std::atomic<uint64_t> next_batch_id_{1};
};

}  // namespace mqo

#endif  // MQO_MQO_FACADE_H_
