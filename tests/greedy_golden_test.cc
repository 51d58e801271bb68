// Golden runs of the greedy family. Every run below prints its pick order,
// its pick ratios (MarginalGreedy) or final cost (CostGreedyMin) with %.17g,
// its evaluation count, and a signature of the "submodular" trace events it
// emitted (event counts per name and argument keys, plus a hash over every
// event's name, keys and values in emission order). The text is compared
// with the recording in tests/golden/greedy_golden.txt, so a change to the
// greedy loops that moves a pick, a tie-break, a ratio bit, an evaluation
// or a trace event shows up as a diff.
//
// Runs (the greedy runs at 1 and 4 threads each):
//  - MarginalGreedy {eager, lazy} x {pruning on, off} x {no limit, k = 3,
//    k = 3 with the Theorem 4 universe reduction} on seeded facility-location
//    instances, a cut function (zero canonical costs) and a modular function
//    (negative and zero canonical costs);
//  - CostGreedyMin {eager, lazy} on a supermodular cost (30 − planted cover +
//    modular), on negated facility location and on a modular cost;
//  - DoubleGreedy and RandomizedDoubleGreedy (seed 99) on the
//    facility-location and cut instances;
//  - RunGreedy {eager, lazy} and RunMarginalGreedy {eager, lazy} x
//    {canonical, use-benefit} on the paper's batches BQ1-BQ3: the chosen
//    classes, the bc bits, the optimizer's cache misses and costings, and the
//    greedy's evaluation count.
//
// To re-record after a deliberate change, run the test and copy the
// greedy_golden.actual.txt it writes into its working directory over the
// recording.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/tpcd.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "obs/obs.h"
#include "submodular/algorithms.h"
#include "submodular/decomposition.h"
#include "submodular/instances.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

constexpr int kThreadCounts[] = {1, 4};

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Join(const std::vector<int>& v) {
  std::string out;
  for (int e : v) out += (out.empty() ? "" : ",") + std::to_string(e);
  return out;
}

std::string JoinExact(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ",") + Exact(x);
  return out;
}

/// Counts per event name and argument keys, then an FNV-1a hash of every
/// "submodular" event's phase, name, keys and values in emission order.
/// Timestamps and durations are left out; the greedy emits from the calling
/// thread only, so the order is deterministic at every thread count.
std::string TraceSignature(const Tracer& tracer) {
  std::map<std::string, int> counts;
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const std::string& s) {
    for (unsigned char c : s) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;
    hash *= 1099511628211ull;
  };
  for (const TraceEvent& ev : tracer.Events()) {
    if (ev.cat != "submodular") continue;
    std::string shape = ev.name + "[";
    mix(std::string(1, ev.phase));
    mix(ev.name);
    for (size_t i = 0; i < ev.args.size(); ++i) {
      const TraceArg& a = ev.args[i];
      shape += (i ? "," : "") + a.key;
      mix(a.key);
      mix(a.is_number ? Exact(a.num) : a.str);
    }
    ++counts[shape + "]"];
  }
  std::string out = "trace";
  for (const auto& [shape, n] : counts) {
    out += " " + shape + "x" + std::to_string(n);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return out + "\ntrace_hash=" + buf + "\n";
}

std::string RenderMarginal(const std::string& name, const SetFunction& f) {
  const Decomposition d = CanonicalDecomposition(f);
  std::ostringstream os;
  for (bool lazy : {false, true}) {
    for (bool prune : {true, false}) {
      for (int limit_case = 0; limit_case < 3; ++limit_case) {
        for (int threads : kThreadCounts) {
          Tracer tracer;
          MarginalGreedyOptions options;
          options.lazy = lazy;
          options.prune_ratio_below_one = prune;
          options.cardinality_limit = limit_case == 0 ? -1 : 3;
          options.universe_reduction = limit_case == 2;
          options.num_threads = threads;
          options.tracer = &tracer;
          int picks_seen = 0;
          options.on_pick = [&picks_seen](const ElementSet& x) {
            picks_seen = x.Size();
          };
          const GreedyResult r = MarginalGreedy(f, d, options);
          os << "## " << name << " marginal " << (lazy ? "lazy" : "eager")
             << (prune ? " prune" : " noprune")
             << (limit_case == 0 ? " nolimit"
                 : limit_case == 1 ? " k3"
                                   : " k3-reduced")
             << " threads=" << threads << "\n"
             << "picks=" << Join(r.pick_order) << "\n"
             << "ratios=" << JoinExact(r.pick_ratios) << "\n"
             << "value=" << Exact(r.value) << " evals=" << r.function_evals
             << " universe=" << r.universe_after_reduction
             << " on_pick_size=" << picks_seen << "\n"
             << TraceSignature(tracer);
        }
      }
    }
  }
  return os.str();
}

std::string RenderCostGreedy(const std::string& name, const SetFunction& g) {
  std::ostringstream os;
  for (bool lazy : {false, true}) {
    for (int threads : kThreadCounts) {
      Tracer tracer;
      int picks_seen = 0;
      auto on_pick = [&picks_seen](const ElementSet& x) {
        picks_seen = x.Size();
      };
      const CostGreedyResult r =
          CostGreedyMin(g, lazy, on_pick, &tracer, threads);
      os << "## " << name << " costgreedy " << (lazy ? "lazy" : "eager")
         << " threads=" << threads << "\n"
         << "picks=" << Join(r.pick_order) << "\n"
         << "cost=" << Exact(r.cost) << " evals=" << r.function_evals
         << " on_pick_size=" << picks_seen << "\n"
         << TraceSignature(tracer);
    }
  }
  return os.str();
}

std::string RenderDoubleGreedy(const std::string& name, const SetFunction& f) {
  std::ostringstream os;
  for (int randomized = 0; randomized < 2; ++randomized) {
    Rng rng(99);
    const GreedyResult r =
        randomized ? RandomizedDoubleGreedy(f, &rng) : DoubleGreedy(f);
    os << "## " << name << (randomized ? " randomized" : "")
       << " doublegreedy\n"
       << "picks=" << Join(r.pick_order) << "\n"
       << "value=" << Exact(r.value) << " evals=" << r.function_evals << "\n";
  }
  return os.str();
}

std::string RenderSynthetic() {
  std::string out;
  for (uint64_t seed : {7, 21, 33}) {
    Rng rng(seed);
    FacilityLocationFunction f =
        FacilityLocationFunction::Random(12, 30, 4.0, &rng);
    out += RenderMarginal("facility" + std::to_string(seed), f);
    LambdaSetFunction neg(f.universe_size(),
                          [&f](const ElementSet& s) { return -f.Value(s); });
    out += RenderCostGreedy("negfacility" + std::to_string(seed), neg);
    out += RenderDoubleGreedy("facility" + std::to_string(seed), f);
  }
  {
    Rng rng(55);
    CutFunction f = CutFunction::Random(10, 0.5, &rng);
    out += RenderMarginal("cut55", f);
    out += RenderDoubleGreedy("cut55", f);
  }
  {
    // Zero weights put ratios exactly on the stop value 1 (and the zero
    // benefits of the modular cost below exactly on 0), where the drop rule
    // and the stop comparison decide.
    ModularFunction f({3.0, 0.0, -2.0, 0.5, 0.0, -0.1, 4.0});
    out += RenderMarginal("modular", f);
    ModularFunction g({-1.0, 0.0, -2.0, 0.0, 1.0, -0.5});
    out += RenderCostGreedy("modcost", g);
  }
  for (uint64_t seed : {7, 21, 33}) {
    Rng rng(seed);
    CoverageFunction cover = MakePlantedCoverInstance(30, 5, 7, &rng);
    std::vector<double> w(cover.universe_size());
    for (auto& x : w) x = rng.NextDoubleIn(0.5, 1.5);
    ModularFunction mod(w);
    LambdaSetFunction g(cover.universe_size(), [&](const ElementSet& s) {
      return 30.0 - cover.Value(s) + mod.Value(s);
    });
    out += RenderCostGreedy("cover" + std::to_string(seed), g);
  }
  return out;
}

std::string SetToString(const std::set<EqId>& s) {
  std::string out = "{";
  for (EqId e : s) {
    if (out.size() > 1) out += ",";
    out += "E" + std::to_string(e);
  }
  return out + "}";
}

/// One MQO driver run on a fresh memo and optimizer for batch BQ`bq`.
std::string RenderMqoRun(
    const Catalog& catalog, int bq, int threads, const std::string& label,
    const std::function<MqoResult(MaterializationProblem*)>& run) {
  Memo memo(&catalog);
  memo.InsertBatch(MakeBatchedWorkload(bq));
  EXPECT_TRUE(ExpandMemo(&memo).ok());
  ObsOptions obs_options;
  obs_options.trace = true;
  ObsContext obs(obs_options);
  BatchOptimizerOptions options;
  options.num_threads = threads;
  options.obs = &obs;
  BatchOptimizer optimizer(&memo, CostModel(), options);
  MaterializationProblem problem(&optimizer);
  const MqoResult r = run(&problem);
  std::ostringstream os;
  os << "## BQ" << bq << " " << label << " threads=" << threads << "\n"
     << "materialized=" << SetToString(r.materialized)
     << " total_cost=" << Exact(r.total_cost) << "\n"
     << "optimizations=" << r.optimizations
     << " function_evals=" << r.function_evals
     << " costings=" << optimizer.num_costings() << "\n"
     << TraceSignature(*obs.tracer());
  return os.str();
}

std::string RenderMqo() {
  Catalog catalog = MakeTpcdCatalog(1);
  std::string out;
  for (int bq = 1; bq <= 3; ++bq) {
    for (int threads : kThreadCounts) {
      for (bool lazy : {false, true}) {
        out += RenderMqoRun(catalog, bq, threads,
                            lazy ? "greedy lazy" : "greedy eager",
                            [lazy](MaterializationProblem* p) {
                              return RunGreedy(p, lazy);
                            });
      }
      for (bool lazy : {false, true}) {
        for (DecompositionKind kind :
             {DecompositionKind::kCanonical, DecompositionKind::kUseBenefit}) {
          MarginalGreedyMqoOptions options;
          options.lazy = lazy;
          options.decomposition = kind;
          const std::string label =
              std::string("marginal ") + (lazy ? "lazy" : "eager") +
              (kind == DecompositionKind::kCanonical ? " canonical"
                                                     : " use-benefit");
          out += RenderMqoRun(catalog, bq, threads, label,
                              [&options](MaterializationProblem* p) {
                                return RunMarginalGreedy(p, options);
                              });
        }
      }
    }
  }
  return out;
}

std::string GoldenPath() {
  std::string dir = __FILE__;
  dir.erase(dir.find_last_of('/') + 1);
  return dir + "golden/greedy_golden.txt";
}

TEST(GreedyGoldenTest, PicksRatiosAndEvaluationsMatchRecording) {
  const std::string actual = RenderSynthetic() + RenderMqo();

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing recording " << GoldenPath();
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;

  std::ofstream("greedy_golden.actual.txt") << actual;
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (more_want != more_got || want_line != got_line) {
      FAIL() << "greedy runs differ from the recording at line " << line
             << "\n  recorded: " << (more_want ? want_line : "<end>")
             << "\n  actual:   " << (more_got ? got_line : "<end>")
             << "\n(full output written to greedy_golden.actual.txt)";
    }
  }
}

}  // namespace
}  // namespace mqo
