// Executes the optimizer's consolidated plans on generated data: the batch
// is optimized with and without MQO, both plans are run by the row and the
// vectorized columnar executor, and all results are compared row-for-row —
// demonstrating that materializing shared subexpressions (and switching
// execution engines) changes cost, never answers.

#include <cstdio>

#include "catalog/tpcd.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "mqo/mqo_algorithms.h"
#include "obs/obs.h"
#include "vexec/backend.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

int main() {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  auto expanded = ExpandMemo(&memo);
  if (!expanded.ok()) {
    std::printf("expansion failed: %s\n", expanded.status().ToString().c_str());
    return 1;
  }

  // A small deterministic database consistent with the TPC-D schema.
  DataGenOptions gen;
  gen.max_rows_per_table = 50;
  gen.domain_cap = 25;
  gen.seed = 2026;
  DataSet data = GenerateData(catalog, gen);

  // MQO_TRACE=1 / MQO_METRICS=1 turn on observability; MQO_TRACE_FILE
  // overrides where the Chrome trace JSON lands.
  ObsOptions obs_options =
      ResolveMqoOptions({}, ParseEnvOverrides()).options.obs;
  if (obs_options.trace && obs_options.trace_path.empty()) {
    obs_options.trace_path = "run_plans_trace.json";
  }
  ObsContext obs_ctx(obs_options);
  ObsContext* obs = obs_ctx.any_enabled() ? &obs_ctx : nullptr;

  BatchOptimizerOptions optimizer_options;
  optimizer_options.obs = obs;
  BatchOptimizer optimizer(&memo, CostModel(), optimizer_options);
  MaterializationProblem problem(&optimizer);
  MqoResult mqo = RunMarginalGreedy(&problem);
  std::printf("Q9 twice (different constants): volcano %.1f s, MQO %.1f s, "
              "%d node(s) materialized\n\n",
              mqo.volcano_cost / 1000, mqo.total_cost / 1000,
              mqo.num_materialized);

  auto run = [&](const std::set<EqId>& mat, ExecBackend backend,
                 const char* label) {
    ConsolidatedPlan plan = optimizer.Plan(mat);
    ExecOptions exec;
    exec.obs = obs;
    auto results = ExecuteConsolidatedWith(backend, &memo, &data, plan, exec);
    if (!results.ok()) {
      std::printf("%s execution failed: %s\n", label,
                  results.status().ToString().c_str());
      return std::vector<NamedRows>{};
    }
    std::printf("%s: query results have %zu and %zu rows\n", label,
                results.ValueOrDie()[0].rows.size(),
                results.ValueOrDie()[1].rows.size());
    return std::move(results).ValueOrDie();
  };

  std::vector<std::vector<NamedRows>> outputs;
  outputs.push_back(run({}, ExecBackend::kRow, "row,    no MQO      "));
  outputs.push_back(run(mqo.materialized, ExecBackend::kRow,
                        "row,    with sharing"));
  outputs.push_back(run({}, ExecBackend::kVector, "vector, no MQO      "));
  outputs.push_back(run(mqo.materialized, ExecBackend::kVector,
                        "vector, with sharing"));
  for (const auto& out : outputs) {
    if (out.empty()) return 1;
  }

  bool identical = true;
  for (size_t v = 1; identical && v < outputs.size(); ++v) {
    identical = SameResultSets(outputs[0], outputs[v]);
  }
  std::printf("\nresults identical across materialization choices and "
              "backends: %s\n",
              identical ? "yes" : "NO (bug!)");

  if (obs != nullptr && obs_options.trace) {
    if (obs->tracer()->WriteChromeJson(obs_options.trace_path)) {
      std::printf("trace written to %s (%zu events)\n",
                  obs_options.trace_path.c_str(),
                  obs->tracer()->Events().size());
    } else {
      std::printf("trace write to %s FAILED\n", obs_options.trace_path.c_str());
    }
  }
  if (obs != nullptr && obs_options.metrics) {
    std::printf("\n%s", obs->metrics()->TextReport().c_str());
  }
  return identical ? 0 : 1;
}
