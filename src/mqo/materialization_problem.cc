#include "mqo/materialization_problem.h"

#include "obs/obs.h"
#include "storage/morsel.h"

namespace mqo {

namespace {

/// Evaluates `fn(i)` for every i in [0, n) — across the worker pool when the
/// optimizer is configured for it, serially otherwise. `fn` writes only its
/// own index's slot, so downstream index-order consumption is deterministic.
void ForEachIndex(size_t n, int num_threads,
                  const std::function<void(size_t)>& fn) {
  if (num_threads > 1 && n > 1) {
    ParallelFor(n, num_threads, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

MaterializationProblem::MaterializationProblem(BatchOptimizer* optimizer)
    : optimizer_(optimizer), universe_(ShareableNodes(*optimizer->memo())) {
  const CostModel& cm = optimizer_->cost_model();
  const int num_threads = optimizer_->options().num_threads;
  if (cm.params().mat_budget_bytes > 0.0) {
    // Admission control: refuse nodes whose standalone recomputation is
    // cheaper than the spill round trip of their footprint. With
    // StandaloneMatCost = compute + write and the round trip = write + read
    // of the same footprint, this refuses exactly the nodes whose compute
    // cost undercuts one sequential read of their own result — segments
    // that can never repay the budget pressure of holding them.
    // The per-node footprint/standalone-cost evaluations are independent, so
    // they fan across the worker pool; the refusal filter below runs
    // serially in universe order, keeping refusal order and tracing
    // identical to the serial run.
    Tracer* tracer = TracerOf(optimizer_->obs());
    std::vector<double> footprints(universe_.size());
    std::vector<double> standalones(universe_.size());
    ForEachIndex(universe_.size(), num_threads, [&](size_t i) {
      footprints[i] = optimizer_->MatFootprintBytes(universe_[i]);
      standalones[i] = optimizer_->StandaloneMatCost(universe_[i]);
    });
    std::vector<EqId> admitted;
    for (size_t i = 0; i < universe_.size(); ++i) {
      const EqId e = universe_[i];
      const double footprint = footprints[i];
      const double blocks = cm.Blocks(footprint);
      const double spill_round_trip =
          cm.SeqWriteCost(blocks) + cm.SeqReadCost(blocks);
      const double standalone = standalones[i];
      // Classes already resident in the cross-batch cache are never refused:
      // their segment is paid for, so "recompute is cheaper than the spill
      // round trip" does not apply — reading the cache costs no compute.
      if (standalone <= spill_round_trip && !optimizer_->IsCachedClass(e)) {
        refused_.push_back(e);
        if (tracer) {
          tracer->Instant("admission_refused", "mqo",
                          {TNum("eq", e), TNum("footprint_bytes", footprint),
                           TNum("standalone_cost_ms", standalone),
                           TNum("spill_round_trip_ms", spill_round_trip)});
        }
        if (MetricsRegistry* m = MetricsOf(optimizer_->obs())) {
          m->AddCounter("mqo.admission_refused");
        }
      } else {
        admitted.push_back(e);
      }
    }
    universe_ = std::move(admitted);
  }
  const int n = static_cast<int>(universe_.size());
  benefit_ = std::make_unique<LambdaSetFunction>(
      n, [this](const ElementSet& s) {
        const std::set<EqId> eqs = ToEqIds(s);
        return VolcanoCost() - (optimizer_->BestCost(eqs) + SpillPenalty(eqs));
      });
  best_cost_ = std::make_unique<LambdaSetFunction>(
      n, [this](const ElementSet& s) {
        const std::set<EqId> eqs = ToEqIds(s);
        return optimizer_->BestCost(eqs) + SpillPenalty(eqs);
      });
}

double MaterializationProblem::VolcanoCost() {
  std::call_once(volcano_once_,
                 [this] { volcano_cost_ = optimizer_->BestCost({}); });
  return volcano_cost_;
}

double MaterializationProblem::FootprintBytes(const std::set<EqId>& eqs) const {
  double bytes = 0.0;
  for (EqId e : eqs) bytes += optimizer_->MatFootprintBytes(e);
  return bytes;
}

double MaterializationProblem::SpillPenalty(const std::set<EqId>& eqs) const {
  return optimizer_->cost_model().SpillPenalty(FootprintBytes(eqs));
}

std::set<EqId> MaterializationProblem::ToEqIds(const ElementSet& s) const {
  std::set<EqId> out;
  for (int i : s.ToVector()) out.insert(universe_[i]);
  return out;
}

Decomposition MaterializationProblem::CanonicalDecomposition() {
  // c*(e) needs bc(U) and bc(U \ {e}) for every e: pin the full universe as
  // the incremental base so each bc(U \ {e}) re-plans only e's ancestor
  // cone, and fan the n independent evaluations across the worker pool.
  std::set<EqId> full(universe_.begin(), universe_.end());
  optimizer_->SetIncrementalBase(full);
  Decomposition d = ::mqo::CanonicalDecomposition(
      *benefit_, optimizer_->options().num_threads);
  optimizer_->SetIncrementalBase({});
  return d;
}

Decomposition MaterializationProblem::UseBenefitDecomposition() {
  Decomposition d;
  d.costs.resize(universe_.size());
  ForEachIndex(universe_.size(), optimizer_->options().num_threads,
               [&](size_t i) {
                 d.costs[i] = optimizer_->StandaloneMatCost(universe_[i]);
               });
  return d;
}

}  // namespace mqo
