// Cardinality-constrained materialization (Section 5.3): a storage budget
// allows at most k intermediate results. Runs the constrained MarginalGreedy
// on a TPC-D batch for increasing k, with and without the Theorem 4 universe
// reduction, showing identical picks and the cost/benefit frontier.

#include <cstdio>

#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

int main() {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(4));
  auto expanded = ExpandMemo(&memo);
  if (!expanded.ok()) {
    std::printf("expansion failed: %s\n", expanded.status().ToString().c_str());
    return 1;
  }
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);

  MqoResult unconstrained = RunMarginalGreedy(&problem);
  std::printf("BQ4 at 1GB: unconstrained MarginalGreedy materializes %d nodes "
              "(cost %.1f s vs Volcano %.1f s)\n\n",
              unconstrained.num_materialized, unconstrained.total_cost / 1000,
              unconstrained.volcano_cost / 1000);

  TablePrinter table({"k (budget)", "est. cost (s)", "#materialized",
                      "same picks with Thm4 reduction"});
  for (int k : {0, 1, 2, 3, 5, 8, 12}) {
    MarginalGreedyMqoOptions plain;
    plain.cardinality_limit = k;
    MarginalGreedyMqoOptions reduced = plain;
    reduced.universe_reduction = true;
    MqoResult a = RunMarginalGreedy(&problem, plain);
    MqoResult b = RunMarginalGreedy(&problem, reduced);
    table.AddRow({std::to_string(k), FormatCost(a.total_cost / 1000),
                  std::to_string(a.num_materialized),
                  a.materialized == b.materialized ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "\nthe cost frontier flattens once the budget covers every beneficial "
      "node.\n"
      "note: Theorem 4 guarantees identical picks when the benefit function\n"
      "is exactly submodular (the monotonicity heuristic). The real bc()\n"
      "oracle violates it occasionally, so 'NO' rows can appear here; on\n"
      "truly submodular instances the invariance is exact (bench_paper, E9).\n");
  return 0;
}
