// Batch MQO on TPC-D: optimize the BQ3 composite query (Q3, Q5, Q7 — each
// twice with different selection constants) at scale factor 1 and compare
// all algorithms, including the materialize-everything baseline the paper
// warns about ("can be horribly inefficient") and the exhaustive optimum on
// the most beneficial candidate subset.

#include <cstdio>

#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

int main() {
  Catalog catalog = MakeTpcdCatalog(/*scale_factor=*/1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(/*num_queries=*/3));
  auto expanded = ExpandMemo(&memo);
  if (!expanded.ok()) {
    std::printf("expansion failed: %s\n", expanded.status().ToString().c_str());
    return 1;
  }
  const ExpansionStats& stats = expanded.ValueOrDie();
  std::printf("BQ3 combined DAG: %d ops before expansion, %d after "
              "(%d classes, %d merges)\n\n",
              stats.ops_before, stats.ops_after, stats.classes_after,
              stats.merges);

  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  std::printf("shareable equivalence nodes: %d\n\n", problem.universe_size());

  TablePrinter table({"algorithm", "est. cost (s)", "benefit", "#materialized",
                      "opt. time (ms)"});
  for (const MqoResult& r :
       {RunVolcano(&problem), RunGreedy(&problem), RunMarginalGreedy(&problem),
        RunMaterializeAll(&problem)}) {
    table.AddRow({r.algorithm, FormatCost(r.total_cost / 1000),
                  FormatCost(r.benefit / 1000), std::to_string(r.num_materialized),
                  FormatDouble(r.optimization_time_ms, 1)});
  }
  table.Print();

  // Show what MarginalGreedy decided to share and how each node is used.
  MqoResult mqo = RunMarginalGreedy(&problem);
  ConsolidatedPlan plan = optimizer.Plan(mqo.materialized);
  std::printf("\nmaterialized nodes and their compute plans:\n");
  for (const auto& m : plan.materialized) {
    const MemoOp& op = memo.op(memo.ClassOps(m.eq).front());
    std::printf("  E%-4d %-60s compute %.1fs + write %.1fs\n", m.eq,
                op.ToString(&memo).c_str(), m.compute_plan->total_cost / 1000,
                m.write_cost / 1000);
  }
  std::printf("\nthe consolidated root plan reads materialized nodes %d times\n",
              CountPlanOps(plan.root_plan, PhysOp::kReadMaterialized));
  return 0;
}
