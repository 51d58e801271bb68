#include "submodular/decomposition.h"

#include <algorithm>
#include <cmath>

#include "storage/morsel.h"

namespace mqo {

Decomposition CanonicalDecomposition(const SetFunction& f, int num_threads) {
  const int n = f.universe_size();
  const ElementSet full = ElementSet::Full(n);
  const double f_full = f.Value(full);  // shared by every marginal below
  Decomposition d;
  d.costs.resize(n);
  ParallelFor(static_cast<size_t>(n), num_threads, [&](size_t e) {
    d.costs[e] = f.Value(full.Without(static_cast<int>(e))) - f_full;
  });
  return d;
}

Decomposition PositiveCosts(Decomposition d) {
  double max_abs = 1.0;
  for (double c : d.costs) max_abs = std::max(max_abs, std::fabs(c));
  const double eps = 1e-9 * max_abs;
  for (double& c : d.costs) c = std::max(c, eps);
  return d;
}

Decomposition ImproveDecomposition(const SetFunction& f, const Decomposition& d) {
  const int n = f.universe_size();
  const ElementSet full = ElementSet::Full(n);
  const double fm_full = d.Monotone(f, full);
  Decomposition out;
  out.costs.resize(n);
  for (int e = 0; e < n; ++e) {
    const double delta = fm_full - d.Monotone(f, full.Without(e));
    out.costs[e] = d.costs[e] - delta;
  }
  return out;
}

bool DecompositionMonotone(const SetFunction& f, const Decomposition& d) {
  const int n = f.universe_size();
  // Enumerate all subsets; only feasible for small n (tests).
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    ElementSet s(n);
    for (int e = 0; e < n; ++e) {
      if ((mask >> e) & 1) s.Add(e);
    }
    const double base = d.Monotone(f, s);
    for (int e = 0; e < n; ++e) {
      if (s.Contains(e)) continue;
      if (d.Monotone(f, s.With(e)) < base - 1e-9) return false;
    }
  }
  return true;
}

}  // namespace mqo
