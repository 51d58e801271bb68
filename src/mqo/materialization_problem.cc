#include "mqo/materialization_problem.h"

#include "obs/obs.h"
#include "storage/morsel.h"

namespace mqo {

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
    // they fan across the worker pool (each writes only its own slot); the
    // refusal filter below runs serially in universe order, keeping refusal
    // order and tracing identical to the serial run.
    Tracer* tracer = TracerOf(optimizer_->obs());
    std::vector<double> footprints(universe_.size());
    std::vector<double> standalones(universe_.size());
    ParallelFor(universe_.size(), num_threads, [&](size_t i) {
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
        const ElementSet classes = ClassSet(s);
        return VolcanoCost() -
               (optimizer_->Costs(classes).first + SpillPenalty(classes));
      });
  best_cost_ = std::make_unique<LambdaSetFunction>(
      n, [this](const ElementSet& s) {
        const ElementSet classes = ClassSet(s);
        return optimizer_->Costs(classes).first + SpillPenalty(classes);
      });
}

double MaterializationProblem::VolcanoCost() {
  std::call_once(volcano_once_, [this] {
    volcano_cost_ =
        optimizer_->Costs(ClassSet(ElementSet(universe_size()))).first;
  });
  return volcano_cost_;
}

ElementSet MaterializationProblem::ClassSet(const ElementSet& s) const {
  // The universe is ascending and canonical, so the class set lists the
  // same ids in the same order as the universe bits it came from.
  ElementSet classes(optimizer_->memo()->num_classes());
  s.ForEach([&](int i) { classes.Add(universe_[i]); });
  return classes;
}

double MaterializationProblem::FootprintBytes(const ElementSet& classes) const {
  double bytes = 0.0;
  classes.ForEach([&](EqId e) { bytes += optimizer_->MatFootprintBytes(e); });
  return bytes;
}

double MaterializationProblem::SpillPenalty(const ElementSet& classes) const {
  return optimizer_->cost_model().SpillPenalty(FootprintBytes(classes));
}

Decomposition MaterializationProblem::CanonicalDecomposition() {
  // c*(e) needs bc(U) and bc(U \ {e}) for every e: pin the full universe as
  // the incremental base so each bc(U \ {e}) re-plans only e's ancestor
  // cone, and fan the n independent evaluations across the worker pool.
  optimizer_->PinIncrementalBase(ClassSet(ElementSet::Full(universe_size())));
  Decomposition d = ::mqo::CanonicalDecomposition(
      *benefit_, optimizer_->options().num_threads);
  optimizer_->PinIncrementalBase(ClassSet(ElementSet(universe_size())));
  return d;
}

Decomposition MaterializationProblem::UseBenefitDecomposition() {
  Decomposition d;
  d.costs.resize(universe_.size());
  ParallelFor(universe_.size(), optimizer_->options().num_threads,
              [&](size_t i) {
                d.costs[i] = optimizer_->StandaloneMatCost(universe_[i]);
              });
  return d;
}

}  // namespace mqo
