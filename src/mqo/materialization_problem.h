// Bridges the batch optimizer's bc(S) oracle and the submodular layer: the
// materialization-benefit function mb(S) = bc(∅) − bc(S) over the universe of
// shareable equivalence nodes (Section 2.4).
//
// Memory governance (CostParams::mat_budget_bytes > 0) adds two layers of
// cost awareness on top of the paper's formulation:
//   - admission control: a shareable node whose standalone recomputation is
//     cheaper than the spill round trip of its footprint (equivalently,
//     whose compute cost is below one sequential read of its result) can
//     never pay for the budget pressure it creates, so it is refused from
//     the universe up front;
//   - spill penalty: every evaluated set S is charged
//     CostModel::SpillPenalty(footprint(S)) — the disk round trip of the
//     bytes by which S overflows the store budget — so the greedy drivers
//     see oversized sets as genuinely more expensive.
// With no budget both layers are inert and the problem is exactly the
// paper's.

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
  /// Under a budget this is the admitted subset; see admission_refused().
  const std::vector<EqId>& universe() const { return universe_; }
  int universe_size() const { return static_cast<int>(universe_.size()); }

  /// Shareable nodes the admission control refused (empty without a budget).
  const std::vector<EqId>& admission_refused() const { return refused_; }

  /// The optimizer's class set (BatchOptimizer) of universe-index set `s`.
  ElementSet ClassSet(const ElementSet& s) const;

  /// Estimated store footprint in bytes of class set `classes` (the sum of
  /// its segment footprints, in ascending class order).
  double FootprintBytes(const ElementSet& classes) const;

  /// CostModel::SpillPenalty of the footprint of class set `classes` (0
  /// without a budget).
  double SpillPenalty(const ElementSet& classes) const;

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
  std::vector<EqId> refused_;  ///< Nodes refused by admission control.
  std::unique_ptr<SetFunction> benefit_;
  std::unique_ptr<SetFunction> best_cost_;
  std::once_flag volcano_once_;  ///< Guards the one bc(∅) evaluation.
  double volcano_cost_ = 0.0;
};

}  // namespace mqo

#endif  // MQO_MQO_MATERIALIZATION_PROBLEM_H_
