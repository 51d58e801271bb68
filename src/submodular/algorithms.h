// Algorithms for unconstrained normalized submodular maximization.
//
//  - MarginalGreedy (Algorithm 2 in the paper): greedily add the element with
//    the highest marginal-benefit-to-cost ratio f'M(x,X)/c(x) while > 1.
//    Non-positive costs are first clamped to a tiny positive epsilon, the
//    positive scaling of Proposition 1's proof, so free elements compete in
//    the same loop. Theorem 1 guarantees
//    f(X) ≥ [1 − (c(Θ)/f(Θ))·ln(1 + f(Θ)/c(Θ))]·f(Θ).
//  - LazyMarginalGreedy (Section 5.2): same output, fewer evaluations, using
//    a max-heap of stale upper bounds (valid under submodularity).
//  - Ratio-pruning (Section 5.1): elements whose ratio drops ≤ 1 are removed
//    from the candidate pool permanently.
//  - Cardinality-constrained variant (Section 5.3) plus the Theorem 4
//    universe-reduction preprocessing.
//  - Reference algorithms for comparison: cost-minimizing greedy (Roy et
//    al.'s Algorithm 1, phrased over an arbitrary set function), deterministic
//    double greedy (Buchbinder et al., for non-negative f), and exhaustive
//    search for small universes.
//
// MarginalGreedy and CostGreedyMin are two rules over one pair of engines:
// an eager scan that rescores every candidate each round, and a wave-lazy
// max-heap of stale scores (Minoux's lazy greedy). A rule supplies the
// candidate score (the ratio, or the cost reduction), the stop value a pick
// must clear, and whether a score at or below it drops the element for good.

#ifndef MQO_SUBMODULAR_ALGORITHMS_H_
#define MQO_SUBMODULAR_ALGORITHMS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "submodular/decomposition.h"
#include "common/rng.h"
#include "submodular/set_function.h"

namespace mqo {

class Tracer;

/// Options for MarginalGreedy and its lazy variant.
struct MarginalGreedyOptions {
  /// Maximum number of elements to pick; <0 means unconstrained.
  int cardinality_limit = -1;
  /// Use the LazyMarginalGreedy upper-bound heap (Section 5.2).
  bool lazy = false;
  /// Permanently drop elements whose ratio is observed ≤ 1 (Section 5.1).
  bool prune_ratio_below_one = true;
  /// Apply the Theorem 4 universe reduction before running (only meaningful
  /// with a cardinality limit; a k==n check short-circuits it, as the proof's
  /// Case 1 prescribes).
  bool universe_reduction = false;
  /// Invoked with the current set after every committed pick. The MQO layer
  /// uses it to pin the optimizer's incremental re-optimization base.
  std::function<void(const ElementSet&)> on_pick;
  /// Trace sink (obs/trace.h): emits a "greedy.round" span per committed pick
  /// and "greedy.candidate" instants with each evaluated marginal/cost ratio.
  /// Null = no tracing.
  Tracer* tracer = nullptr;
  /// Worker threads for each round's candidate evaluations (1 = serial).
  /// Evaluations within a round are independent; results merge by candidate
  /// index, so picks, tie-breaks, and evaluation counts are bit-identical to
  /// the serial run at every thread count. The MQO drivers pass the
  /// optimizer's resolved thread count through here.
  int num_threads = 1;
};

/// Result of a greedy run.
struct GreedyResult {
  ElementSet selected;
  double value = 0.0;              ///< f(selected).
  std::vector<int> pick_order;     ///< Elements in pick order.
  std::vector<double> pick_ratios; ///< Ratio at each pick.
  int64_t function_evals = 0;      ///< Marginal evaluations performed.
  int universe_after_reduction = 0;  ///< Candidates left after Theorem 4.
};

/// Runs MarginalGreedy on f with decomposition d (Algorithm 2 + Section 5
/// optimizations per `options`) over the whole universe.
GreedyResult MarginalGreedy(const SetFunction& f, const Decomposition& d,
                            const MarginalGreedyOptions& options = {});

/// Roy et al.'s greedy (Algorithm 1), phrased over an arbitrary cost
/// objective g to minimize: repeatedly add the element of the universe
/// minimizing g(X∪{x}) while that improves on g(X). `lazy` applies their
/// heap optimization, exact when g is supermodular (the "monotonicity
/// heuristic"). Candidate evaluations fan out on `num_threads` workers with
/// picks and evaluation counts identical at every thread count.
struct CostGreedyResult {
  ElementSet selected;
  double cost = 0.0;  ///< g(selected).
  std::vector<int> pick_order;
  int64_t function_evals = 0;
};
CostGreedyResult CostGreedyMin(
    const SetFunction& g, bool lazy = false,
    const std::function<void(const ElementSet&)>& on_pick = {},
    Tracer* tracer = nullptr, int num_threads = 1);

/// Deterministic double greedy of Buchbinder et al. (1/3-approx for
/// non-negative unconstrained submodular maximization). Included as a
/// baseline; it has no guarantee once f takes negative values, which is the
/// gap the paper's algorithm fills.
GreedyResult DoubleGreedy(const SetFunction& f);

/// Sviridenko's knapsack-constrained ratio greedy (the algorithm that
/// motivated MarginalGreedy, Section 3 of the paper): greedily add the
/// element with the highest fM-marginal-to-cost ratio among those that still
/// fit the budget. The paper remarks (Section 3.1) that running it with
/// budget c(Θ) reproduces MarginalGreedy's answer — validated in
/// bench_paper's E14. `d` supplies both fM (= f + c) and the element costs.
GreedyResult KnapsackRatioGreedy(const SetFunction& f, const Decomposition& d,
                                 double budget);

/// Randomized double greedy of Buchbinder et al. (expected 1/2-approx for
/// non-negative unconstrained submodular maximization): each element joins X
/// with probability a/(a+b) where a, b are the clamped forward/backward
/// marginals. Deterministic given the RNG seed.
GreedyResult RandomizedDoubleGreedy(const SetFunction& f, Rng* rng);

/// Exhaustive maximizer (universe ≤ 25). Returns the best set and value.
GreedyResult ExhaustiveMax(const SetFunction& f);

/// The Theorem 1 bound: [1 − (c/f)·ln(1 + f/c)] · f, evaluated at the
/// optimum's value f_opt = f(Θ) and cost c_opt = c(Θ). Returns -inf when the
/// bound degenerates (f_opt ≤ 0) and f_opt when c_opt ≤ 0.
double Theorem1Bound(double f_opt, double c_opt);

}  // namespace mqo

#endif  // MQO_SUBMODULAR_ALGORITHMS_H_
