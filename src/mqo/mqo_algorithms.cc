#include "mqo/mqo_algorithms.h"

#include "common/timer.h"
#include "obs/obs.h"

namespace mqo {

namespace {

MqoResult Finalize(MaterializationProblem* problem, std::string name,
                   const ElementSet& selected, double elapsed_ms,
                   int64_t optimizations_before, int64_t evals) {
  MqoResult r;
  r.algorithm = std::move(name);
  const ElementSet classes = problem->ClassSet(selected);
  classes.ForEach([&r](EqId e) { r.materialized.insert(e); });
  r.total_cost = problem->optimizer()->Costs(classes).first;
  r.volcano_cost = problem->VolcanoCost();
  r.benefit = r.volcano_cost - r.total_cost;
  r.num_materialized = static_cast<int>(r.materialized.size());
  r.optimization_time_ms = elapsed_ms;
  r.optimizations =
      problem->optimizer()->num_optimizations() - optimizations_before;
  r.function_evals = evals;
  if (MetricsRegistry* m = MetricsOf(problem->optimizer()->obs())) {
    m->ObserveMs("mqo.optimize_ms", elapsed_ms);
    m->SetGauge("mqo.num_materialized", r.num_materialized);
    m->SetGauge("mqo.benefit", r.benefit);
  }
  return r;
}

/// "mqo.<algorithm>" span wrapping one driver run, closed by Finalize's
/// caller going out of scope.
TraceSpan AlgoSpan(MaterializationProblem* problem, const char* name) {
  return TraceSpan(TracerOf(problem->optimizer()->obs()), name, "mqo");
}

}  // namespace

MqoResult RunVolcano(MaterializationProblem* problem) {
  TraceSpan span = AlgoSpan(problem, "mqo.volcano");
  WallTimer timer;
  const int64_t before = problem->optimizer()->num_optimizations();
  ElementSet empty(problem->universe_size());
  return Finalize(problem, "Volcano", empty, timer.ElapsedMillis(), before, 0);
}

MqoResult RunGreedy(MaterializationProblem* problem, bool lazy) {
  TraceSpan span = AlgoSpan(problem, "mqo.greedy");
  WallTimer timer;
  const int64_t before = problem->optimizer()->num_optimizations();
  // Pin the incremental re-optimization base to the committed set X, so each
  // trial bc(X ∪ {x}) re-plans only the ancestors of x.
  auto on_pick = [problem](const ElementSet& x) {
    problem->optimizer()->PinIncrementalBase(problem->ClassSet(x));
  };
  on_pick(ElementSet(problem->universe_size()));
  CostGreedyResult greedy =
      CostGreedyMin(problem->best_cost(), lazy, on_pick,
                    TracerOf(problem->optimizer()->obs()),
                    problem->optimizer()->options().num_threads);
  return Finalize(problem, "Greedy", greedy.selected, timer.ElapsedMillis(),
                  before, greedy.function_evals);
}

MqoResult RunMarginalGreedy(MaterializationProblem* problem,
                            const MarginalGreedyMqoOptions& options) {
  TraceSpan span = AlgoSpan(problem, "mqo.marginal_greedy");
  WallTimer timer;
  const int64_t before = problem->optimizer()->num_optimizations();
  Decomposition d = options.decomposition == DecompositionKind::kCanonical
                        ? problem->CanonicalDecomposition()
                        : problem->UseBenefitDecomposition();
  MarginalGreedyOptions greedy_options;
  greedy_options.lazy = options.lazy;
  greedy_options.cardinality_limit = options.cardinality_limit;
  greedy_options.universe_reduction = options.universe_reduction;
  greedy_options.tracer = TracerOf(problem->optimizer()->obs());
  greedy_options.num_threads = problem->optimizer()->options().num_threads;
  greedy_options.on_pick = [problem](const ElementSet& x) {
    problem->optimizer()->PinIncrementalBase(problem->ClassSet(x));
  };
  greedy_options.on_pick(ElementSet(problem->universe_size()));
  GreedyResult greedy = MarginalGreedy(problem->benefit(), d, greedy_options);
  return Finalize(problem, "MarginalGreedy", greedy.selected,
                  timer.ElapsedMillis(), before, greedy.function_evals);
}

MqoResult RunMaterializeAll(MaterializationProblem* problem) {
  TraceSpan span = AlgoSpan(problem, "mqo.materialize_all");
  WallTimer timer;
  const int64_t before = problem->optimizer()->num_optimizations();
  ElementSet all = ElementSet::Full(problem->universe_size());
  return Finalize(problem, "MaterializeAll", all, timer.ElapsedMillis(), before,
                  0);
}

MqoResult RunExhaustive(MaterializationProblem* problem) {
  TraceSpan span = AlgoSpan(problem, "mqo.exhaustive");
  WallTimer timer;
  const int64_t before = problem->optimizer()->num_optimizations();
  GreedyResult best = ExhaustiveMax(problem->benefit());
  return Finalize(problem, "Exhaustive", best.selected, timer.ElapsedMillis(),
                  before, best.function_evals);
}

}  // namespace mqo
