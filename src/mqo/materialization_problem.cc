#include "mqo/materialization_problem.h"

#include "storage/morsel.h"

namespace mqo {

MaterializationProblem::MaterializationProblem(BatchOptimizer* optimizer)
    : optimizer_(optimizer), universe_(ShareableNodes(*optimizer->memo())) {
  const int n = static_cast<int>(universe_.size());
  benefit_ = std::make_unique<LambdaSetFunction>(
      n, [this](const ElementSet& s) {
        return VolcanoCost() - optimizer_->Costs(ClassSet(s)).first;
      });
  best_cost_ = std::make_unique<LambdaSetFunction>(
      n, [this](const ElementSet& s) {
        return optimizer_->Costs(ClassSet(s)).first;
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
