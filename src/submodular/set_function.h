// Set-function abstractions for unconstrained normalized submodular
// maximization (UNSM), the problem the paper reduces MQO to (Section 2.3).

#ifndef MQO_SUBMODULAR_SET_FUNCTION_H_
#define MQO_SUBMODULAR_SET_FUNCTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/element_set.h"

namespace mqo {

/// A real-valued set function f : 2^U -> R over universe {0..n-1}.
class SetFunction {
 public:
  virtual ~SetFunction() = default;

  virtual int universe_size() const = 0;

  /// f(s).
  virtual double Value(const ElementSet& s) const = 0;

  /// Marginal f(s ∪ {e}) − f(s). Subclasses may override with a faster
  /// incremental form.
  virtual double Marginal(int e, const ElementSet& s) const {
    if (s.Contains(e)) return 0.0;
    return Value(s.With(e)) - Value(s);
  }
};

/// Wraps a lambda as a SetFunction.
class LambdaSetFunction : public SetFunction {
 public:
  LambdaSetFunction(int n, std::function<double(const ElementSet&)> fn)
      : n_(n), fn_(std::move(fn)) {}
  int universe_size() const override { return n_; }
  double Value(const ElementSet& s) const override { return fn_(s); }

 private:
  int n_;
  std::function<double(const ElementSet&)> fn_;
};

/// Memoizing + evaluation-counting wrapper. The MQO oracle bc(S) is expensive
/// (a full optimization), so both caching and counting matter; the counter is
/// also the work measure for the LazyMarginalGreedy ablation.
class CountingSetFunction : public SetFunction {
 public:
  explicit CountingSetFunction(const SetFunction* inner) : inner_(inner) {}

  int universe_size() const override { return inner_->universe_size(); }

  double Value(const ElementSet& s) const override {
    auto it = cache_.find(s);
    if (it != cache_.end()) return it->second;
    ++evals_;
    double v = inner_->Value(s);
    cache_.emplace(s, v);
    return v;
  }

  /// Number of distinct evaluations of the wrapped function (cache misses).
  int64_t num_evals() const { return evals_; }

 private:
  const SetFunction* inner_;
  mutable std::unordered_map<ElementSet, double, ElementSetHash> cache_;
  mutable int64_t evals_ = 0;
};

/// An additive (modular) function c(S) = sum of per-element weights.
class ModularFunction : public SetFunction {
 public:
  explicit ModularFunction(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  int universe_size() const override { return static_cast<int>(weights_.size()); }

  double Value(const ElementSet& s) const override {
    double total = 0.0;
    for (int e : s.ToVector()) total += weights_[e];
    return total;
  }

  double Marginal(int e, const ElementSet& s) const override {
    return s.Contains(e) ? 0.0 : weights_[e];
  }

  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
};

}  // namespace mqo

#endif  // MQO_SUBMODULAR_SET_FUNCTION_H_
