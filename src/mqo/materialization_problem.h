// Bridges the batch optimizer's bc(S) oracle and the submodular layer: the
// materialization-benefit function mb(S) = bc(∅) − bc(S) over the universe of
// shareable equivalence nodes (Section 2.4). The problem is exactly the
// paper's: the universe is every shareable node and the set functions carry
// no memory term — a segment store's byte budget governs only eviction at
// run time (ExecOptions::mat_budget_bytes), never the selection.

#ifndef MQO_MQO_MATERIALIZATION_PROBLEM_H_
#define MQO_MQO_MATERIALIZATION_PROBLEM_H_

#include <memory>
#include <mutex>
#include <vector>

#include "optimizer/batch_optimizer.h"
#include "submodular/decomposition.h"
#include "submodular/set_function.h"

namespace mqo {

/// The MQO instance as a submodular-maximization problem. Universe element i
/// corresponds to shareable node universe()[i].
class MaterializationProblem {
 public:
  explicit MaterializationProblem(BatchOptimizer* optimizer);

  /// Shareable equivalence nodes, index-aligned with the set functions.
  const std::vector<EqId>& universe() const { return universe_; }
  int universe_size() const { return static_cast<int>(universe_.size()); }

  /// Always empty: nothing is refused from the universe. Kept only because
  /// the macro benchmark's replica of the session run (perfbench) still
  /// compiles against it; it goes when that replica drops the call.
  const std::vector<EqId>& admission_refused() const {
    static const std::vector<EqId> kNone;
    return kNone;
  }

  /// The optimizer's class set (BatchOptimizer) of universe-index set `s`.
  ElementSet ClassSet(const ElementSet& s) const;

  /// mb(S) = bc(∅) − bc(S); normalized (mb(∅)=0), submodular under the
  /// monotonicity heuristic.
  const SetFunction& benefit() const { return *benefit_; }

  /// bc(S) itself, for the cost-minimizing Greedy of Roy et al.
  const SetFunction& best_cost() const { return *best_cost_; }

  /// bc(∅): the stand-alone Volcano (no-MQO) plan cost. Evaluated on first
  /// use and then held here, so mb(S) asks the optimizer for bc(S) only.
  double VolcanoCost();

  /// Proposition 1 decomposition c*(e) = mb(U\{e}) − mb(U); n+1 bc calls.
  Decomposition CanonicalDecomposition();

  /// Heuristic "use-benefit" decomposition: c(e) = cost of computing and
  /// writing node e with nothing else materialized. Cheap (n standalone
  /// optimizations of single nodes) but without the Prop 2 optimality.
  Decomposition UseBenefitDecomposition();

  BatchOptimizer* optimizer() { return optimizer_; }

 private:
  BatchOptimizer* optimizer_;
  std::vector<EqId> universe_;
  std::unique_ptr<SetFunction> benefit_;
  std::unique_ptr<SetFunction> best_cost_;
  std::once_flag volcano_once_;  ///< Guards the one bc(∅) evaluation.
  double volcano_cost_ = 0.0;
};

}  // namespace mqo

#endif  // MQO_MQO_MATERIALIZATION_PROBLEM_H_
