// Decompositions f = fM − c of a normalized submodular function into a
// monotone submodular part fM and an additive cost c (Propositions 1 and 2).
//
// A decomposition is fully described by the additive vector c: then
// fM(S) = f(S) + c(S). The canonical decomposition of Proposition 1 uses
// c*(e) = f(U \ {e}) − f(U); Proposition 2's improvement procedure maps any
// valid decomposition toward it and is a fixpoint exactly there.

#ifndef MQO_SUBMODULAR_DECOMPOSITION_H_
#define MQO_SUBMODULAR_DECOMPOSITION_H_

#include <vector>

#include "submodular/set_function.h"

namespace mqo {

/// A decomposition f = fM − c where c(S) = Σ_{e∈S} costs[e] and
/// fM(S) = f(S) + c(S).
struct Decomposition {
  std::vector<double> costs;

  double CostOf(const ElementSet& s) const {
    double total = 0.0;
    for (int e : s.ToVector()) total += costs[e];
    return total;
  }

  /// fM(S) = f(S) + c(S).
  double Monotone(const SetFunction& f, const ElementSet& s) const {
    return f.Value(s) + CostOf(s);
  }

  /// f'M(e, S) = f'(e, S) + c(e).
  double MonotoneMarginal(const SetFunction& f, int e, const ElementSet& s) const {
    return f.Marginal(e, s) + costs[e];
  }
};

/// Proposition 1: c*(e) = f(U \ {e}) − f(U). Costs n+1 evaluations of f.
/// The n per-element evaluations are independent; with `num_threads` > 1
/// they fan across the worker pool (f(U) is computed first either way, and
/// the result is identical for every thread count).
Decomposition CanonicalDecomposition(const SetFunction& f,
                                     int num_threads = 1);

/// Proposition 2: given any decomposition with monotone fM, subtract
/// d(e) = fM(U) − fM(U \ {e}) from both parts; the result is still a valid
/// decomposition with monotone fM and a no-worse approximation ratio.
Decomposition ImproveDecomposition(const SetFunction& f, const Decomposition& d);

/// Exhaustively verifies (for small universes) that fM = f + c is monotone;
/// used by tests to check decomposition validity.
bool DecompositionMonotone(const SetFunction& f, const Decomposition& d);

}  // namespace mqo

#endif  // MQO_SUBMODULAR_DECOMPOSITION_H_
