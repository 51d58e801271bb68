#include "submodular/algorithms.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>

#include "obs/trace.h"
#include "storage/morsel.h"

namespace mqo {

namespace {

/// What one greedy family tells the two engines below. Both commit, round
/// after round, the best-scoring candidate while its score is strictly
/// above the stop value.
struct GreedyRule {
  /// Score of candidate `e` against the committed set `x`; higher is
  /// better. Runs concurrently on the worker pool.
  std::function<double(int e, const ElementSet& x)> score;
  /// Optional: computes the value every score of a round shares before the
  /// round fans out, so workers do not race to compute the same base value
  /// (a shared cost cache makes the race benign, but the duplicate misses
  /// would inflate the optimizer's work counters relative to the serial run).
  std::function<void(const ElementSet& x)> prewarm;
  /// A pick must score strictly above the stop value; this is the first
  /// round's.
  double stop = 0.0;
  /// Called with each committed score; returns the next round's stop value.
  /// Null keeps `stop` fixed.
  std::function<double(double score)> commit;
  /// Drop a candidate for good once it scores at or below the stop value.
  bool drop_at_stop = false;
  /// Trace argument key of a score, and the sign it is traced with.
  const char* trace_key = "ratio";
  double trace_sign = 1.0;
  int limit = std::numeric_limits<int>::max();  ///< Maximum number of picks.
  std::function<void(const ElementSet&)> on_pick;
  Tracer* tracer = nullptr;  ///< Null when tracing is off.
  int num_threads = 1;
};

/// Scores `elems` against `x` into `scores`, counts the evaluations and
/// traces one "greedy.candidate" instant per score. The scores land by index
/// on up to `num_threads` workers, so everything derived from them in index
/// order is bit-identical to the serial run. A fan-out is wrapped in a
/// "greedy.parallel_eval" span when tracing is on.
void ScoreAll(const GreedyRule& rule, const std::vector<int>& elems,
              const ElementSet& x, std::vector<double>* scores,
              GreedyResult* result) {
  const bool fan_out = rule.num_threads > 1 && elems.size() > 1;
  if (fan_out && rule.prewarm) rule.prewarm(x);
  scores->resize(elems.size());
  auto score_one = [&](size_t i) { (*scores)[i] = rule.score(elems[i], x); };
  if (fan_out && rule.tracer != nullptr) {
    TraceSpan span(rule.tracer, "greedy.parallel_eval", "submodular");
    span.AddNum("evals", static_cast<double>(elems.size()));
    ParallelFor(elems.size(), rule.num_threads, score_one);
  } else {
    ParallelFor(elems.size(), rule.num_threads, score_one);
  }
  result->function_evals += static_cast<int64_t>(elems.size());
  if (rule.tracer == nullptr) return;
  for (size_t i = 0; i < elems.size(); ++i) {
    rule.tracer->Instant("greedy.candidate", "submodular",
                         {TNum("elem", elems[i]),
                          TNum(rule.trace_key, rule.trace_sign * (*scores)[i]),
                          TNum("round", result->pick_order.size())});
  }
}

/// A "greedy.round" span: the committed pick and its score, or picked = -1
/// when the round ends the run.
void TraceRound(const GreedyRule& rule, int64_t start_ns, size_t round,
                double pool, int picked, double score) {
  std::vector<TraceArg> args = {TNum("round", round), TNum("pool", pool),
                                TNum("picked", picked)};
  if (picked >= 0) {
    args.push_back(TNum(rule.trace_key, rule.trace_sign * score));
  }
  rule.tracer->CompleteSince(start_ns, "greedy.round", "submodular",
                             std::move(args));
}

/// Adds `e` to the committed set and records the pick.
void RecordPick(int e, double score, GreedyResult* result) {
  result->selected.Add(e);
  result->pick_order.push_back(e);
  result->pick_ratios.push_back(score);
}

/// Eager greedy: every round rescores the whole pool against X and commits
/// the first candidate with the highest score. The scores land in an index
/// array (in parallel when requested) and the selection reduces serially in
/// index order, so picks, tie-breaks, drops and tracing match the serial
/// run at every thread count.
void EagerGreedy(const GreedyRule& rule, std::vector<int> pool,
                 GreedyResult* result) {
  ElementSet& x = result->selected;
  double stop = rule.stop;
  std::vector<double> scores;
  while (!pool.empty() && x.Size() < rule.limit) {
    const int64_t round_start_ns = rule.tracer ? MonotonicNanos() : 0;
    const size_t round = result->pick_order.size();
    const int pool_before = static_cast<int>(pool.size());
    ScoreAll(rule, pool, x, &scores, result);
    int best = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    size_t kept = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const int e = pool[i];
      if (rule.drop_at_stop && scores[i] <= stop) continue;
      pool[kept++] = e;
      // Strict > keeps the earliest index on ties.
      if (scores[i] > best_score) {
        best_score = scores[i];
        best = e;
      }
    }
    pool.resize(kept);
    const bool picked = best >= 0 && best_score > stop;
    if (picked) {
      RecordPick(best, best_score, result);
      pool.erase(std::remove(pool.begin(), pool.end(), best), pool.end());
      if (rule.commit) stop = rule.commit(best_score);
    }
    if (rule.tracer) {
      TraceRound(rule, round_start_ns, round, pool_before, picked ? best : -1,
                 best_score);
    }
    if (!picked) break;
    if (rule.on_pick) rule.on_pick(x);
  }
}

/// Wave-lazy greedy (Minoux): a max-heap of stale scores, valid as upper
/// bounds while scores only shrink as X grows, so a re-scored top of the
/// heap is exact. Stale tops sharing the maximal bound are gathered into
/// one wave and rescored together (in parallel when requested) — the
/// initial wave of infinite bounds is the whole pool, which is where
/// nearly all of the evaluations happen. Serial and parallel runs execute
/// the exact same waves, so picks and evaluation counts are identical.
void LazyGreedy(const GreedyRule& rule, const std::vector<int>& pool,
                GreedyResult* result) {
  struct HeapEntry {
    double bound;
    int e;
    int stamp;  // |X| at which the bound was computed
    bool operator<(const HeapEntry& o) const {
      // Bound descending, element index ascending: on equal bounds the
      // smallest index pops first, matching the eager scan's tie-break.
      if (bound != o.bound) return bound < o.bound;
      return e > o.e;
    }
  };
  ElementSet& x = result->selected;
  double stop = rule.stop;
  std::priority_queue<HeapEntry> heap;
  for (int e : pool) {
    heap.push({std::numeric_limits<double>::infinity(), e, -1});
  }
  std::vector<int> wave;
  std::vector<double> scores;
  int64_t round_start_ns = rule.tracer ? MonotonicNanos() : 0;
  while (!heap.empty() && x.Size() < rule.limit) {
    const HeapEntry top = heap.top();
    if (top.stamp == x.Size()) {
      // Fresh bound: it is the exact score and it dominates the heap.
      heap.pop();
      if (top.bound <= stop) break;
      RecordPick(top.e, top.bound, result);
      if (rule.commit) stop = rule.commit(top.bound);
      if (rule.tracer) {
        TraceRound(rule, round_start_ns, result->pick_order.size() - 1,
                   static_cast<double>(heap.size()), top.e, top.bound);
        round_start_ns = MonotonicNanos();
      }
      if (rule.on_pick) rule.on_pick(x);
      continue;
    }
    wave.clear();
    while (!heap.empty() && heap.top().bound == top.bound &&
           heap.top().stamp != x.Size()) {
      wave.push_back(heap.top().e);
      heap.pop();
    }
    ScoreAll(rule, wave, x, &scores, result);
    for (size_t i = 0; i < wave.size(); ++i) {
      if (rule.drop_at_stop && scores[i] <= stop) continue;
      heap.push({scores[i], wave[i], x.Size()});
    }
  }
}

/// One double-greedy pass over the elements in index order: X grows from ∅
/// and Y shrinks from U, and e joins X iff `take(a, b)` holds for its
/// forward marginal a = f(X∪{e}) − f(X) and backward marginal
/// b = f(Y\{e}) − f(Y).
GreedyResult DoubleGreedyPass(const SetFunction& f,
                              const std::function<bool(double, double)>& take) {
  GreedyResult result;
  const int n = f.universe_size();
  ElementSet x(n);                     // starts empty
  ElementSet y = ElementSet::Full(n);  // starts full
  for (int e = 0; e < n; ++e) {
    const double a = f.Marginal(e, x);
    const double b = f.Value(y.Without(e)) - f.Value(y);
    result.function_evals += 2;
    if (take(a, b)) {
      x.Add(e);
      result.pick_order.push_back(e);
    } else {
      y.Remove(e);
    }
  }
  result.selected = x;
  result.value = f.Value(x);
  return result;
}

/// Theorem 4 preprocessing: the reduced candidate list U' (ascending) for a
/// cardinality limit k >= 0 over the whole universe. Guaranteed not to
/// change MarginalGreedy's output. Costs must be positive (MarginalGreedy
/// clamps them first). The per-element rankings evaluate in parallel on
/// `num_threads` workers, with identical output and evaluation count for
/// every value.
std::vector<int> UniverseReduction(const SetFunction& f, const Decomposition& d,
                                   int k, int64_t* evals, int num_threads) {
  const int n = f.universe_size();
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  if (k >= n) {
    // Case 1 of Theorem 4: every element passes the filter; skip the
    // (wasteful) function calls entirely.
    return all;
  }
  const ElementSet full = ElementSet::Full(n);
  // Rank by f'M(e, U\{e}) / c(e). The marginals against U \ {e} all share
  // f(U): warm it before fanning out so workers only compute their own
  // f(U \ {e}).
  if (num_threads > 1 && n > 1) (void)f.Value(full);
  std::vector<double> last_ratio(n);
  ParallelFor(n, num_threads, [&](size_t e) {
    last_ratio[e] = d.MonotoneMarginal(f, static_cast<int>(e),
                                       full.Without(static_cast<int>(e))) /
                    d.costs[e];
  });
  *evals += n;
  if (k == 0) return all;  // reduction cannot apply meaningfully
  std::sort(last_ratio.begin(), last_ratio.end(), std::greater<double>());
  const double threshold = last_ratio[k - 1];
  const ElementSet empty(n);
  // Keep e iff fM({e})/c(e) >= threshold; the singleton values share f(∅).
  if (num_threads > 1 && n > 1) (void)f.Value(empty);
  std::vector<double> singleton(n);
  ParallelFor(n, num_threads, [&](size_t e) {
    singleton[e] = d.MonotoneMarginal(f, static_cast<int>(e), empty);
  });
  *evals += n;
  std::vector<int> out;
  for (int e = 0; e < n; ++e) {
    if (singleton[e] / d.costs[e] >= threshold) out.push_back(e);
  }
  return out;
}

}  // namespace

double Theorem1Bound(double f_opt, double c_opt) {
  if (f_opt <= 0) return -std::numeric_limits<double>::infinity();
  if (c_opt <= 0) return f_opt;
  const double gamma = f_opt / c_opt;
  return (1.0 - std::log1p(gamma) / gamma) * f_opt;
}

GreedyResult MarginalGreedy(const SetFunction& f, const Decomposition& raw_d,
                            const MarginalGreedyOptions& options) {
  GreedyResult result;
  result.selected = ElementSet(f.universe_size());
  // Non-positive costs are clamped to a tiny epsilon (PositiveCosts), so
  // every element competes in the ratio loop (free elements then rank by
  // marginal benefit and are still accepted iff the benefit is positive).
  const Decomposition d = PositiveCosts(raw_d);

  std::vector<int> candidates(f.universe_size());
  std::iota(candidates.begin(), candidates.end(), 0);
  if (options.universe_reduction && options.cardinality_limit >= 0) {
    candidates = UniverseReduction(f, d, options.cardinality_limit,
                                   &result.function_evals,
                                   options.num_threads);
  }
  result.universe_after_reduction = static_cast<int>(candidates.size());

  GreedyRule rule;
  rule.score = [&f, &d](int e, const ElementSet& x) {
    return d.MonotoneMarginal(f, e, x) / d.costs[e];
  };
  // Every marginal of a round shares f(X).
  rule.prewarm = [&f](const ElementSet& x) { (void)f.Value(x); };
  rule.stop = 1.0;
  // Section 5.1: by submodularity a ratio ≤ 1 never rises above 1 again.
  rule.drop_at_stop = options.prune_ratio_below_one;
  rule.limit = options.cardinality_limit >= 0 ? options.cardinality_limit
                                              : f.universe_size();
  rule.on_pick = options.on_pick;
  rule.tracer =
      options.tracer && options.tracer->enabled() ? options.tracer : nullptr;
  rule.num_threads = options.num_threads;
  if (options.lazy) {
    LazyGreedy(rule, candidates, &result);
  } else {
    EagerGreedy(rule, std::move(candidates), &result);
  }
  result.value = f.Value(result.selected);
  return result;
}

CostGreedyResult CostGreedyMin(
    const SetFunction& g, bool lazy,
    const std::function<void(const ElementSet&)>& on_pick, Tracer* raw_tracer,
    int num_threads) {
  GreedyResult run;
  run.selected = ElementSet(g.universe_size());
  std::vector<int> pool(g.universe_size());
  std::iota(pool.begin(), pool.end(), 0);
  // Also serves as the parallel prewarm: g(X) is in the cost cache before any
  // round fans out, and each candidate's g(X∪{e}) is a distinct set, so
  // workers never race to compute the same value.
  double current = g.Value(run.selected);
  ++run.function_evals;

  GreedyRule rule;
  rule.on_pick = on_pick;
  rule.tracer = raw_tracer && raw_tracer->enabled() ? raw_tracer : nullptr;
  rule.num_threads = num_threads;
  if (!lazy) {
    // Score −g(X∪{e}) against stop −g(X): negation is exact, so the strict
    // comparisons pick exactly what `cost < best` would (a benefit
    // g(X) − g(X∪{e}) could round two costs an ulp apart into a tie).
    rule.score = [&g](int e, const ElementSet& x) {
      return -g.Value(x.With(e));
    };
    rule.stop = -current;
    rule.commit = [](double score) { return score; };
    rule.trace_key = "cost";
    rule.trace_sign = -1.0;
    EagerGreedy(rule, std::move(pool), &run);
  } else {
    // Under the "monotonicity heuristic" (supermodularity of g) the benefit
    // g(X) − g(X∪{e}) only shrinks as X grows, so stale benefits are safe
    // upper bounds (Roy et al.'s third optimization), and a benefit ≤ 0 is
    // never positive again.
    rule.score = [&g, &current](int e, const ElementSet& x) {
      return current - g.Value(x.With(e));
    };
    rule.stop = 0.0;
    rule.drop_at_stop = true;
    rule.commit = [&current](double benefit) {
      current -= benefit;
      return 0.0;
    };
    rule.trace_key = "benefit";
    LazyGreedy(rule, pool, &run);
  }

  CostGreedyResult result;
  result.selected = std::move(run.selected);
  result.cost = g.Value(result.selected);
  result.pick_order = std::move(run.pick_order);
  result.function_evals = run.function_evals;
  return result;
}

GreedyResult KnapsackRatioGreedy(const SetFunction& f, const Decomposition& d,
                                 double budget) {
  GreedyResult result;
  const int n = f.universe_size();
  std::vector<int> pool;
  for (int e = 0; e < n; ++e) {
    if (d.costs[e] > 0) pool.push_back(e);
  }
  ElementSet x(n);
  double spent = 0.0;
  while (!pool.empty()) {
    int best = -1;
    double best_ratio = -std::numeric_limits<double>::infinity();
    for (int e : pool) {
      if (spent + d.costs[e] > budget + 1e-12) continue;
      const double ratio = d.MonotoneMarginal(f, e, x) / d.costs[e];
      ++result.function_evals;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = e;
      }
    }
    if (best < 0) break;  // nothing fits any more
    // Sviridenko's setting maximizes monotone fM, so any fitting element is
    // taken; stop once marginals hit zero to avoid useless churn.
    if (best_ratio <= 0) break;
    x.Add(best);
    spent += d.costs[best];
    result.pick_order.push_back(best);
    result.pick_ratios.push_back(best_ratio);
    pool.erase(std::remove(pool.begin(), pool.end(), best), pool.end());
  }
  result.selected = x;
  result.value = f.Value(x);
  return result;
}

GreedyResult DoubleGreedy(const SetFunction& f) {
  return DoubleGreedyPass(f, [](double a, double b) { return a >= b; });
}

GreedyResult RandomizedDoubleGreedy(const SetFunction& f, Rng* rng) {
  return DoubleGreedyPass(f, [rng](double a, double b) {
    a = std::max(0.0, a);
    b = std::max(0.0, b);
    return rng->NextBool((a + b) > 0 ? a / (a + b) : 1.0);
  });
}

GreedyResult ExhaustiveMax(const SetFunction& f) {
  const int n = f.universe_size();
  assert(n <= 25 && "exhaustive search is exponential");
  GreedyResult result;
  result.selected = ElementSet(n);
  result.value = f.Value(result.selected);
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 1; mask < limit; ++mask) {
    ElementSet s(n);
    for (int e = 0; e < n; ++e) {
      if ((mask >> e) & 1) s.Add(e);
    }
    const double v = f.Value(s);
    ++result.function_evals;
    if (v > result.value) {
      result.value = v;
      result.selected = s;
    }
  }
  return result;
}

}  // namespace mqo
