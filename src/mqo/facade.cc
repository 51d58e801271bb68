#include "mqo/facade.h"

#include <algorithm>
#include <iostream>

#include <fstream>
#include <unordered_map>

#include "common/string_util.h"
#include "lqdag/rules.h"
#include "obs/clock.h"
#include "stats/feedback.h"
#include "storage/segment_cache.h"

namespace mqo {

void MqoOutcome::Print() const { Print(std::cout); }

void MqoOutcome::Print(std::ostream& os) const {
  os << "algorithm        : " << result.algorithm << "\n";
  os << "statistics       : " << StatsModeToString(stats_mode) << "\n";
  os << "DAG              : " << dag_classes << " classes, " << dag_ops
     << " operators, " << shareable_nodes << " shareable\n";
  os << "no-MQO cost      : " << FormatCost(result.volcano_cost / 1000.0)
     << " s\n";
  os << "consolidated cost: " << FormatCost(result.total_cost / 1000.0)
     << " s (" << FormatDouble(100.0 * result.benefit /
                                   std::max(result.volcano_cost, 1e-9), 1)
     << "% benefit, " << result.num_materialized << " node(s) materialized)\n";
  os << "optimization time: " << FormatDouble(result.optimization_time_ms, 2)
     << " ms (" << result.optimizations << " plan searches)\n";
  os << "\nconsolidated plan:\n" << consolidated_plan;
  for (const auto& p : materialized_plans) {
    os << "\nmaterialized node plan:\n" << p;
  }
}

ResolvedMqoOptions ResolveMqoOptions(const MqoOptions& options,
                                     const EnvOverrides& env) {
  ResolvedMqoOptions resolved{options, 1};
  MqoOptions& o = resolved.options;
  ExecOptions& exec = o.exec;
  if (exec.mat_budget_bytes == 0) exec.mat_budget_bytes = env.mat_budget_bytes;
  if (exec.mat_spill_dir.empty()) exec.mat_spill_dir = env.spill_dir;
  if (o.shared_cache_budget_bytes == 0) {
    o.shared_cache_budget_bytes = exec.mat_budget_bytes;
  }
  if (!o.stats_mode) o.stats_mode = env.stats_mode;
  o.obs.metrics = o.obs.metrics || env.metrics;
  o.obs.trace = o.obs.trace || env.trace;
  if (o.obs.trace_path.empty()) o.obs.trace_path = env.trace_file;
  if (!o.obs.trace_path.empty()) o.obs.trace = true;
  // One knob governs executor and optimizer parallelism: an explicit
  // exec.num_threads > 1 fans greedy candidate evaluations across the same
  // worker pool; otherwise MQO_OPT_THREADS (CI ablation) may opt in.
  resolved.optimizer_threads =
      exec.num_threads > 1 ? exec.num_threads : env.opt_threads;
  return resolved;
}

namespace {

/// Parses every SQL string of the batch, failing on the first error.
Result<std::vector<LogicalExprPtr>> ParseBatch(
    const Catalog& catalog, const std::vector<std::string>& sql_batch) {
  std::vector<LogicalExprPtr> queries;
  for (const auto& sql : sql_batch) {
    MQO_ASSIGN_OR_RETURN(LogicalExprPtr tree, ParseQuery(sql, catalog));
    queries.push_back(std::move(tree));
  }
  return queries;
}

/// Statistics configuration for one optimization: the caller resolves where
/// collected stats come from (`registry` may be an external or call-local
/// one, or null, which degrades kCollected to kCatalogGuess).
StatsOptions StatsOptionsFor(const MqoOptions& options,
                             const TableStatsRegistry* registry) {
  StatsOptions stats;
  stats.mode = options.stats_mode.value_or(StatsMode::kCatalogGuess);
  stats.table_stats = registry;
  stats.feedback = options.feedback;
  return stats;
}

/// Optimizer-side EXPLAIN snapshot: for every chosen class, the estimates the
/// decision was based on. The per-class predicted benefit is the marginal
/// bc(S \ {e}) − bc(S), computed incrementally off the committed set.
void CaptureClassEstimates(Memo* memo, BatchOptimizer* optimizer,
                           const std::set<EqId>& chosen,
                           const ConsolidatedPlan& plan, MqoOutcome* outcome) {
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
    est.attributes = static_cast<int>(memo->Attributes(c).size());
    std::vector<OpId> ops = memo->ClassOps(c);
    if (!ops.empty()) est.label = memo->op(ops.front()).ToString(memo);
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

/// Shared orchestration: inserts the batch into `memo`, expands, runs the
/// selected algorithm, and renders the chosen consolidated plan. The memo is
/// caller-owned so execution paths can keep it alive alongside the plan.
Result<ConsolidatedPlan> OptimizeIntoMemo(
    Memo* memo, const std::vector<LogicalExprPtr>& queries,
    const ResolvedMqoOptions& resolved, const StatsOptions& stats,
    ObsContext* obs, MqoOutcome* outcome) {
  const MqoOptions& options = resolved.options;
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  memo->InsertBatch(queries);
  auto expanded = ExpandMemo(memo, options.expansion);
  MQO_RETURN_NOT_OK(expanded.status());

  BatchOptimizerOptions optimizer_options;
  optimizer_options.stats = stats;
  optimizer_options.obs = obs;
  optimizer_options.num_threads = resolved.optimizer_threads;
  // A session's shared segment cache makes its resident classes zero-cost
  // materialization candidates: the snapshot is taken once here, so this
  // optimization prices a consistent view even while concurrent batches
  // insert and evict.
  if (options.exec.shared_cache != nullptr) {
    optimizer_options.cached_fingerprints =
        options.exec.shared_cache->FingerprintSnapshot();
  }
  BatchOptimizer optimizer(memo, CostModel(options.cost_params),
                           optimizer_options);
  outcome->stats_mode = optimizer.stats()->mode();
  MaterializationProblem problem(&optimizer);

  outcome->dag_classes = expanded.ValueOrDie().classes_after;
  outcome->dag_ops = expanded.ValueOrDie().ops_after;
  outcome->shareable_nodes = problem.universe_size();
  switch (options.algorithm) {
    case MqoOptions::Algorithm::kMarginalGreedy:
      outcome->result = RunMarginalGreedy(&problem, options.marginal_options);
      break;
    case MqoOptions::Algorithm::kGreedy:
      outcome->result = RunGreedy(&problem);
      break;
    case MqoOptions::Algorithm::kVolcano:
      outcome->result = RunVolcano(&problem);
      break;
  }
  ConsolidatedPlan plan = optimizer.Plan(outcome->result.materialized);
  outcome->consolidated_plan = PlanToString(plan.root_plan);
  for (const auto& m : plan.materialized) {
    outcome->materialized_plans.push_back(PlanToString(m.compute_plan));
  }
  CaptureClassEstimates(memo, &optimizer, outcome->result.materialized, plan,
                        outcome);
  return plan;
}

/// Joins the optimizer's estimates with the executor's segment telemetry and
/// renders the EXPLAIN ANALYZE report; exports trace/metrics when enabled.
void AssembleRunReport(const ExecResult& executed, ObsContext* obs,
                       MqoExecutionOutcome* outcome) {
  outcome->store_stats = executed.store_stats;
  std::unordered_map<int, const SegmentRuntime*> by_eq;
  for (const auto& s : executed.segments) by_eq[s.eq] = &s;
  for (const auto& est : outcome->optimization.class_estimates) {
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
    outcome->explain.push_back(entry);
  }
  outcome->explain_analyze = RenderExplainAnalyze(outcome->explain);
  if (obs == nullptr) return;
  if (obs->options().metrics) {
    ExportStorageStats(outcome->store_stats, nullptr, obs->metrics());
    outcome->metrics_report = obs->metrics()->TextReport();
  }
  if (obs->options().trace) {
    outcome->trace_json = obs->tracer()->ToChromeJson();
    const std::string& path = obs->options().trace_path;
    if (!path.empty()) {
      std::ofstream out(path, std::ios::trunc);
      out << outcome->trace_json;
    }
  }
}

/// Optimizes and executes with options the caller already resolved.
Result<MqoExecutionOutcome> ExecuteResolved(
    const Catalog& catalog, const std::vector<LogicalExprPtr>& queries,
    const DataSet& data, ResolvedMqoOptions resolved) {
  MqoOptions& effective = resolved.options;
  Memo memo(&catalog);
  MqoExecutionOutcome outcome;
  outcome.backend = effective.backend;
  // One ObsContext spans the whole run — optimizer spans, executor spans and
  // store events land in a single trace/metrics scope.
  ObsContext obs_ctx(effective.obs);
  ObsContext* obs = obs_ctx.any_enabled() ? &obs_ctx : nullptr;
  effective.exec.obs = obs;
  StatsOptions stats = StatsOptionsFor(effective, effective.table_stats);
  // kCollected with no external registry: analyze the executed dataset into
  // a call-local one, lazily per table touched by the optimization.
  TableStatsRegistry local_registry;
  if (stats.mode == StatsMode::kCollected && stats.table_stats == nullptr) {
    AnalyzeOptions analyze;
    analyze.num_threads = effective.exec.num_threads;
    local_registry.Reset(&data, analyze);
    stats.table_stats = &local_registry;
  }
  MQO_ASSIGN_OR_RETURN(
      ConsolidatedPlan plan,
      OptimizeIntoMemo(&memo, queries, resolved, stats, obs,
                       &outcome.optimization));
  MQO_ASSIGN_OR_RETURN(
      ExecResult executed,
      ExecuteConsolidatedResult(effective.backend, &memo, &data, plan,
                                effective.exec));
  outcome.results = std::move(executed.results);
  outcome.feedback = std::move(executed.feedback);
  outcome.cross_batch_hits = executed.cross_batch_hits;
  AssembleRunReport(executed, obs, &outcome);
  return outcome;
}

}  // namespace

Result<MqoOutcome> OptimizeBatch(const Catalog& catalog,
                                 const std::vector<LogicalExprPtr>& queries,
                                 const MqoOptions& options) {
  const ResolvedMqoOptions resolved =
      ResolveMqoOptions(options, ParseEnvOverrides());
  const MqoOptions& effective = resolved.options;
  Memo memo(&catalog);
  MqoOutcome outcome;
  // No data in sight: collected statistics are only available through an
  // externally-supplied registry. Optimize-only runs have no outcome field
  // to surface traces through, so observability stays off here.
  MQO_ASSIGN_OR_RETURN(
      ConsolidatedPlan plan,
      OptimizeIntoMemo(&memo, queries, resolved,
                       StatsOptionsFor(effective, effective.table_stats),
                       /*obs=*/nullptr, &outcome));
  (void)plan;
  return outcome;
}

Result<MqoExecutionOutcome> OptimizeAndExecuteBatch(
    const Catalog& catalog, const std::vector<LogicalExprPtr>& queries,
    const DataSet& data, const MqoOptions& options) {
  return ExecuteResolved(catalog, queries, data,
                         ResolveMqoOptions(options, ParseEnvOverrides()));
}

MqoSession::MqoSession(const Catalog* catalog, const DataSet* data,
                       MqoOptions options)
    : catalog_(catalog),
      data_(data),
      resolved_(ResolveMqoOptions(options, ParseEnvOverrides())),
      session_obs_(resolved_.options.obs) {
  const ExecOptions& exec = resolved_.options.exec;
  AnalyzeOptions analyze;
  analyze.num_threads = exec.num_threads;
  registry_.Reset(data_, analyze);
  if (resolved_.options.shared_segment_cache) {
    // The session's one segment store: it holds the cached segments and the
    // in-flight runs' segments under one budget, and its store events
    // report into the session-lifetime obs scope, not any single run's.
    MatStoreOptions cache_options = exec.mat_store();
    cache_options.budget_bytes = resolved_.options.shared_cache_budget_bytes;
    cache_options.obs = session_obs();
    cache_ = std::make_unique<SharedSegmentCache>(cache_options);
  }
}

Result<MqoExecutionOutcome> MqoSession::Run(
    const std::vector<std::string>& sql_batch) {
  MQO_ASSIGN_OR_RETURN(std::vector<LogicalExprPtr> queries,
                       ParseBatch(*catalog_, sql_batch));
  return Run(queries);
}

Result<MqoExecutionOutcome> MqoSession::Run(
    const std::vector<LogicalExprPtr>& queries) {
  const uint64_t batch_id = next_batch_id_.fetch_add(1);
  const int64_t run_start_ns = MonotonicNanos();
  ResolvedMqoOptions run = resolved_;
  MqoOptions& effective = run.options;
  effective.table_stats = &registry_;
  effective.exec.shared_cache = cache_.get();
  // The run optimizes against a point-in-time copy of the feedback map:
  // concurrent runs merging their observations back cannot race with this
  // run's estimator reads.
  CardinalityFeedback feedback_snapshot;
  uint64_t feedback_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    feedback_snapshot = feedback_;
    feedback_epoch = feedback_epoch_;
  }
  effective.feedback = &feedback_snapshot;
  // Scope the run's trace by its batch id: events export under pid=batch_id,
  // and concurrent runs sharing one configured trace file fan out into
  // per-batch files instead of clobbering each other.
  effective.obs.scope_id = batch_id;
  if (effective.obs.trace && !effective.obs.trace_path.empty()) {
    effective.obs.trace_path += ".batch" + std::to_string(batch_id);
  }
  MQO_ASSIGN_OR_RETURN(
      MqoExecutionOutcome outcome,
      ExecuteResolved(*catalog_, queries, *data_, std::move(run)));
  outcome.batch_id = batch_id;
  // Fold this run's observations into the session: the next batch's
  // estimates — and the footprints/eviction weights derived from them —
  // re-seed from what actually happened. A run that overlapped an
  // invalidation may have measured the old data, so its observations go.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (feedback_epoch == feedback_epoch_) {
      feedback_.MergeFrom(outcome.feedback);
    }
  }
  if (MetricsRegistry* m = MetricsOf(session_obs())) {
    m->ObserveMs("session.run_ms",
                 NanosToMillis(MonotonicNanos() - run_start_ns));
    if (cache_) {
      const SegmentCacheStats cache_stats = cache_->stats();
      ExportStorageStats(cache_->store_stats(), &cache_stats, m);
    }
  }
  return outcome;
}

void MqoSession::InvalidateTable(const std::string& table) {
  registry_.Invalidate(table);
  {
    // Feedback is keyed by class fingerprint, not by table, so every
    // observed cardinality goes: some may count rows of the old table.
    std::lock_guard<std::mutex> lock(mu_);
    feedback_.clear();
    ++feedback_epoch_;
  }
  if (cache_) cache_->InvalidateTable(table);
}

void MqoSession::InvalidateStats() {
  registry_.BindData(data_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    feedback_.clear();
    ++feedback_epoch_;
  }
  if (cache_) cache_->Clear();
}

Result<MqoExecutionOutcome> OptimizeAndExecuteSqlBatch(
    const Catalog& catalog, const std::vector<std::string>& sql_batch,
    const DataSet& data, const MqoOptions& options) {
  MQO_ASSIGN_OR_RETURN(std::vector<LogicalExprPtr> queries,
                       ParseBatch(catalog, sql_batch));
  return OptimizeAndExecuteBatch(catalog, queries, data, options);
}

Result<MqoOutcome> OptimizeSqlBatch(const Catalog& catalog,
                                    const std::vector<std::string>& sql_batch,
                                    const MqoOptions& options) {
  MQO_ASSIGN_OR_RETURN(std::vector<LogicalExprPtr> queries,
                       ParseBatch(catalog, sql_batch));
  return OptimizeBatch(catalog, queries, options);
}

}  // namespace mqo
