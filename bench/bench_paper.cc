// The paper's evidence in one program. Each experiment prints its table and
// writes one BENCH_paper.json record per table row and per shape check; a
// violated check makes the exit code nonzero. Takes no flags. README
// "Benchmarks and examples" maps the experiment ids to the paper.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "submodular/algorithms.h"
#include "submodular/instances.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

namespace {

/// Console tables, BENCH_paper.json records and the shape-check ledger.
class Report {
 public:
  /// Starts a table under a "=== id: title ===" banner. Rows print at
  /// EndTable(); each is one JSON record keyed by the column headers.
  void Table(std::string id, std::string title,
             std::vector<std::string> headers) {
    std::printf("=== %s: %s ===\n\n", id.c_str(), title.c_str());
    id_ = std::move(id);
    title_ = std::move(title);
    headers_ = headers;
    table_.emplace(std::move(headers));
  }

  void Row(std::vector<std::string> cells) {
    std::vector<JsonField> record = Key();
    for (size_t i = 0; i < cells.size(); ++i) {
      char* end = nullptr;
      const double v = std::strtod(cells[i].c_str(), &end);
      record.push_back(end != cells[i].c_str() && *end == '\0'
                           ? JNum(headers_[i], v)
                           : JStr(headers_[i], cells[i]));
    }
    json_.AddRecord(std::move(record));
    table_->AddRow(std::move(cells));
  }

  void EndTable() {
    table_->Print();
    std::printf("\n");
  }

  /// Records shape check `what` of the current table.
  void Check(const std::string& what, bool ok) {
    std::vector<JsonField> record = Key();
    record.insert(record.end(), {JStr("check", what), JNum("ok", ok)});
    json_.AddRecord(std::move(record));
    ++checks_;
    if (!ok) {
      ++violations_;
      std::printf("VIOLATED [%s: %s] %s\n", id_.c_str(), title_.c_str(),
                  what.c_str());
    }
  }

  /// Writes BENCH_paper.json; returns the exit code.
  int Finish() const {
    std::printf("shape checks: %s (%d of %d violated)\n",
                violations_ == 0 ? "OK" : "VIOLATED", violations_, checks_);
    const bool wrote = json_.WriteFile("BENCH_paper.json");
    std::printf("BENCH_paper.json: %s (%zu records)\n",
                wrote ? "written" : "WRITE FAILED", json_.num_records());
    return violations_ == 0 && wrote ? 0 : 1;
  }

 private:
  std::vector<JsonField> Key() const {
    return {JStr("bench", "paper"), JStr("experiment", id_),
            JStr("table", title_)};
  }

  std::string id_;
  std::string title_;
  std::vector<std::string> headers_;
  std::optional<TablePrinter> table_;
  BenchJsonWriter json_;
  int checks_ = 0;
  int violations_ = 0;
};

/// One expanded batch with its optimizer and materialization problem.
struct Batch {
  Catalog catalog;
  std::unique_ptr<Memo> memo;
  std::unique_ptr<BatchOptimizer> optimizer;
  std::unique_ptr<MaterializationProblem> problem;
};

std::unique_ptr<Batch> MakeBatch(Catalog catalog,
                                 std::vector<LogicalExprPtr> queries,
                                 const CostParams& params = CostParams(),
                                 const BatchOptimizerOptions& options = {}) {
  auto b = std::make_unique<Batch>();
  b->catalog = std::move(catalog);
  b->memo = std::make_unique<Memo>(&b->catalog);
  b->memo->InsertBatch(std::move(queries));
  auto expanded = ExpandMemo(b->memo.get());
  if (!expanded.ok()) {
    std::printf("expansion failed: %s\n", expanded.status().ToString().c_str());
    std::exit(1);
  }
  b->optimizer = std::make_unique<BatchOptimizer>(b->memo.get(),
                                                  CostModel(params), options);
  b->problem = std::make_unique<MaterializationProblem>(b->optimizer.get());
  return b;
}

/// A named query set, built fresh for every batch that runs it.
struct Workload {
  std::string name;
  std::vector<LogicalExprPtr> (*make)();
};

/// Figure 5's stand-alone queries, with common subexpressions within
/// themselves; Q2-D (the decorrelated Q2) is a batch.
const Workload kStandalone[] = {
    {"Q2", MakeQ2}, {"Q2-D", MakeQ2D}, {"Q11", MakeQ11}, {"Q15", MakeQ15}};

std::string Seconds(double ms) { return FormatCost(ms / 1000.0); }

std::string VsVolcano(const MqoResult& r) {
  return "-" + FormatDouble(100.0 * r.benefit / r.volcano_cost, 1) + "%";
}

void Example1(Report* r) {
  auto b = MakeBatch(MakeExample1Catalog(), MakeExample1Queries());
  MqoResult volcano = RunVolcano(b->problem.get());
  MqoResult marginal = RunMarginalGreedy(b->problem.get());
  r->Table("E1", "Example 1 / Figure 1 — sharing (B JOIN C)",
           {"plan", "est. cost (s)", "materialized nodes"});
  r->Row({"locally optimal (Figure 1a analogue)", Seconds(volcano.total_cost),
          "0"});
  r->Row({"consolidated, shares B JOIN C (Figure 1b analogue)",
          Seconds(marginal.total_cost),
          std::to_string(marginal.num_materialized)});
  r->EndTable();

  ConsolidatedPlan plan = b->optimizer->Plan(marginal.materialized);
  const int reads = CountPlanOps(plan.root_plan, PhysOp::kReadMaterialized);
  std::printf("consolidated plan reads the materialized node %d times\n", reads);
  r->Check("consolidated < locally optimal",
           marginal.total_cost < volcano.total_cost);
  r->Check("shared node scanned twice", reads >= 2);
  std::printf("consolidated plan:\n%s", PlanToString(plan.root_plan).c_str());
  for (const auto& m : plan.materialized) {
    std::printf("materialized E%d (write cost %s):\n%s\n", m.eq,
                Seconds(m.write_cost).c_str(),
                PlanToString(m.compute_plan).c_str());
  }
}

/// BQi is the first i of {Q3,Q5,Q7,Q8,Q9,Q10}, each twice with different
/// selection constants.
void Figure4(Report* r, const char* id, const std::string& title, double scale,
             const CostParams& params) {
  r->Table(id, title,
           {"batch", "algorithm", "est. cost (s)", "vs Volcano",
            "#materialized", "opt. time (ms)", "bc() calls"});
  for (int i = 1; i <= 6; ++i) {
    auto b = MakeBatch(MakeTpcdCatalog(scale), MakeBatchedWorkload(i), params);
    MaterializationProblem* p = b->problem.get();
    const MqoResult results[3] = {RunVolcano(p), RunGreedy(p),
                                  RunMarginalGreedy(p)};
    const std::string bq = "BQ" + std::to_string(i);
    for (const MqoResult& res : results) {
      r->Row({bq, res.algorithm, Seconds(res.total_cost), VsVolcano(res),
              std::to_string(res.num_materialized),
              FormatDouble(res.optimization_time_ms, 2),
              std::to_string(res.optimizations)});
    }
    r->Check(bq + ": Greedy <= Volcano",
             results[1].total_cost <= results[0].total_cost + 1e-6);
    r->Check(bq + ": MarginalGreedy <= 1.001 x Greedy",
             results[2].total_cost <= results[1].total_cost * 1.001);
  }
  r->EndTable();
}

void Figure5(Report* r, const char* id, const std::string& title,
             double scale) {
  r->Table(id, title,
           {"query", "algorithm", "est. cost (s)", "vs Volcano",
            "#materialized", "opt. time (ms)"});
  for (const Workload& q : kStandalone) {
    auto b = MakeBatch(MakeTpcdCatalog(scale), q.make());
    MaterializationProblem* p = b->problem.get();
    const MqoResult results[3] = {RunVolcano(p), RunGreedy(p),
                                  RunMarginalGreedy(p)};
    for (const MqoResult& res : results) {
      r->Row({q.name, res.algorithm, Seconds(res.total_cost), VsVolcano(res),
              std::to_string(res.num_materialized),
              FormatDouble(res.optimization_time_ms, 2)});
    }
    // Section 6.2: both greedy algorithms find the same answer, and MQO
    // roughly halves Q11 and Q15.
    r->Check(q.name + ": Greedy and MarginalGreedy pick the same set",
             results[1].materialized == results[2].materialized);
    if (q.name == "Q11" || q.name == "Q15") {
      r->Check(q.name + ": Greedy <= 0.65 x Volcano",
               results[1].total_cost <= 0.65 * results[0].total_cost);
    }
  }
  r->EndTable();
}

/// Planted covers have optimum f(Theta) = 1 at c(Theta) = 1/gamma; the
/// random instances take the bound at the exhaustive optimum.
void TheoremOneSynthetic(Report* r) {
  Rng rng(42);
  r->Table("E8a", "Profitted Max Coverage (Problem 1), planted cover",
           {"gamma", "n(univ)", "opt f", "greedy f", "Thm1 bound",
            "bound holds", "greedy/opt"});
  for (double gamma : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const int l = 6;
    ProfittedMaxCoverage f(
        MakePlantedCoverInstance(/*ground=*/60, l, /*decoys=*/14, &rng), l,
        gamma);
    GreedyResult greedy = MarginalGreedy(f, CanonicalDecomposition(f));
    GreedyResult opt = ExhaustiveMax(f);
    const double bound =
        Theorem1Bound(opt.value, opt.selected.Size() * f.ElementCost());
    const bool holds = greedy.value >= bound - 1e-9;
    r->Check("gamma " + FormatDouble(gamma, 1) + ": greedy >= bound", holds);
    r->Row({FormatDouble(gamma, 1), std::to_string(f.universe_size()),
            FormatDouble(opt.value, 4), FormatDouble(greedy.value, 4),
            FormatDouble(bound, 4), holds ? "yes" : "NO",
            FormatDouble(greedy.value / opt.value, 4)});
  }
  r->EndTable();

  r->Table("E8b", "random non-monotone submodular instances",
           {"instance", "n", "opt f", "greedy f", "Thm1 bound",
            "bound holds"});
  auto run = [&](const std::string& name, const SetFunction& f) {
    // The bound takes the positive costs the algorithm runs with.
    Decomposition d = PositiveCosts(CanonicalDecomposition(f));
    GreedyResult greedy = MarginalGreedy(f, d);
    GreedyResult opt = ExhaustiveMax(f);
    const double bound = Theorem1Bound(opt.value, d.CostOf(opt.selected));
    const bool holds = greedy.value >= bound - 1e-9 || opt.value <= 0;
    r->Check(name + ": greedy >= bound", holds);
    r->Row({name, std::to_string(f.universe_size()),
            FormatDouble(opt.value, 3), FormatDouble(greedy.value, 3),
            FormatDouble(bound, 3), holds ? "yes" : "NO"});
  };
  for (int trial = 0; trial < 5; ++trial) {
    run("cut#" + std::to_string(trial), CutFunction::Random(12, 0.4, &rng));
  }
  for (int trial = 0; trial < 5; ++trial) {
    run("facloc#" + std::to_string(trial),
        FacilityLocationFunction::Random(10, 30, 6.0, &rng));
  }
  r->EndTable();
}

/// BQ1 and the stand-alone queries have at most 18 shareable classes, the
/// reach of exhaustive search (BQ2-BQ6 have 36-149). The bound is taken at
/// the optimum with Prop 1's decomposition c*.
void TheoremOneOnBatches(Report* r) {
  r->Table("E8c", "Theorem 1 on real MQO batches vs the exhaustive optimum, 1GB",
           {"batch", "n", "algorithm", "est. cost (s)", "bc/bc(opt)",
            "mb/mb(opt)", "#materialized", "Thm1 bound (s)", "bound holds"});
  std::vector<Workload> batches = {
      {"BQ1", [] { return MakeBatchedWorkload(1); }}};
  batches.insert(batches.end(), std::begin(kStandalone), std::end(kStandalone));
  for (const Workload& w : batches) {
    auto b = MakeBatch(MakeTpcdCatalog(1), w.make());
    MaterializationProblem* p = b->problem.get();
    const MqoResult results[4] = {RunVolcano(p), RunGreedy(p),
                                  RunMarginalGreedy(p), RunExhaustive(p)};
    const MqoResult& opt = results[3];
    ElementSet opt_set(p->universe_size());
    for (int i = 0; i < p->universe_size(); ++i) {
      if (opt.materialized.count(p->universe()[i]) > 0) opt_set.Add(i);
    }
    const double bound = Theorem1Bound(
        opt.benefit, PositiveCosts(p->CanonicalDecomposition()).CostOf(opt_set));
    const bool holds = results[2].benefit >= bound - 1e-6 || opt.benefit <= 0;
    r->Check(w.name + ": mb(MarginalGreedy) >= Theorem 1 bound", holds);
    for (int a = 0; a < 4; ++a) {
      const MqoResult& res = results[a];
      if (a < 3) {
        r->Check(w.name + ": bc(opt) <= bc(" + res.algorithm + ")",
                 opt.total_cost <= res.total_cost + 1e-6);
      }
      r->Row({w.name, std::to_string(p->universe_size()), res.algorithm,
              Seconds(res.total_cost),
              FormatDouble(res.total_cost / opt.total_cost, 4),
              opt.benefit > 0 ? FormatDouble(res.benefit / opt.benefit, 4) : "-",
              std::to_string(res.num_materialized),
              a == 2 ? Seconds(bound) : "-",
              a == 2 ? (holds ? "yes" : "NO") : "-"});
    }
  }
  r->EndTable();
}

/// Theorem 4's preprocessing leaves the output unchanged; k == n is Case 1
/// of the proof, where the check is skipped.
void Pruning(Report* r) {
  Rng rng(7);
  r->Table("E9", "Theorem 4 universe reduction (cardinality k)",
           {"instance", "n", "k", "universe after", "same output",
            "evals(no red.)", "evals(with red.)"});
  auto run = [&](const std::string& name, const SetFunction& f, int k) {
    Decomposition d = CanonicalDecomposition(f);
    MarginalGreedyOptions plain;
    plain.cardinality_limit = k;
    MarginalGreedyOptions reduced = plain;
    reduced.universe_reduction = true;
    GreedyResult a = MarginalGreedy(f, d, plain);
    GreedyResult b = MarginalGreedy(f, d, reduced);
    const bool same = a.selected == b.selected;
    r->Check(name + " k=" + std::to_string(k) + ": same output", same);
    r->Row({name, std::to_string(f.universe_size()), std::to_string(k),
            std::to_string(b.universe_after_reduction), same ? "yes" : "NO",
            std::to_string(a.function_evals),
            std::to_string(b.function_evals)});
  };
  for (int trial = 0; trial < 4; ++trial) {
    ProfittedMaxCoverage f(MakePlantedCoverInstance(80, 8, 24, &rng), 8, 2.0);
    run("profitted-cover", f, 4);
    run("profitted-cover", f, 8);
    run("profitted-cover", f, f.universe_size());
  }
  for (int trial = 0; trial < 4; ++trial) {
    FacilityLocationFunction fl =
        FacilityLocationFunction::Random(16, 40, 4.0, &rng);
    run("facility-location", fl, 3);
    run("facility-location", fl, 8);
  }
  r->EndTable();
}

/// The lazy heap picks what the eager scan picks with fewer evaluations; on
/// the real oracle each evaluation is a full optimizer run.
void Lazy(Report* r) {
  Rng rng(11);
  r->Table("E10", "lazy-evaluation ablation (Section 5.2)",
           {"instance", "algorithm", "mode", "value/cost", "func evals",
            "same picks"});
  for (int n : {20, 40, 80}) {
    FacilityLocationFunction fl =
        FacilityLocationFunction::Random(n, 3 * n, 4.0, &rng);
    Decomposition d = CanonicalDecomposition(fl);
    GreedyResult g[2];
    for (int lazy = 0; lazy < 2; ++lazy) {
      MarginalGreedyOptions options;
      options.lazy = lazy == 1;
      g[lazy] = MarginalGreedy(fl, d, options);
    }
    const std::string name = "facloc n=" + std::to_string(n);
    const bool same = g[0].selected == g[1].selected;
    r->Check(name + ": lazy picks == eager picks", same);
    r->Check(name + ": lazy evals <= eager evals",
             g[1].function_evals <= g[0].function_evals);
    r->Row({name, "MarginalGreedy", "eager", FormatDouble(g[0].value, 3),
            std::to_string(g[0].function_evals), "-"});
    r->Row({name, "MarginalGreedy", "lazy", FormatDouble(g[1].value, 3),
            std::to_string(g[1].function_evals), same ? "yes" : "NO"});
  }

  auto b = MakeBatch(MakeTpcdCatalog(1), MakeBatchedWorkload(4));
  for (int lazy = 0; lazy < 2; ++lazy) {
    MqoResult g = RunGreedy(b->problem.get(), lazy == 1);
    r->Row({"TPCD BQ4", "Greedy", lazy ? "lazy" : "eager",
            Seconds(g.total_cost), std::to_string(g.function_evals), "-"});
  }
  MqoResult m[2];
  for (int lazy = 0; lazy < 2; ++lazy) {
    MarginalGreedyMqoOptions options;
    options.lazy = lazy == 1;
    m[lazy] = RunMarginalGreedy(b->problem.get(), options);
  }
  const bool same = m[0].materialized == m[1].materialized;
  r->Check("TPCD BQ4: lazy picks == eager picks", same);
  r->Row({"TPCD BQ4", "MarginalGreedy", "eager", Seconds(m[0].total_cost),
          std::to_string(m[0].function_evals), "-"});
  r->Row({"TPCD BQ4", "MarginalGreedy", "lazy", Seconds(m[1].total_cost),
          std::to_string(m[1].function_evals), same ? "yes" : "NO"});
  r->EndTable();
}

/// MarginalGreedy under c* (Prop 1, the best), c* shifted up by a positive
/// linear term (valid, weaker bound) and Prop 2's improvement of the shift
/// (which maps it back to c*); then canonical vs use-benefit on the real
/// oracle.
void Decompositions(Report* r) {
  Rng rng(23);
  r->Table("E11", "decomposition ablation (Prop 1 / Prop 2)",
           {"instance", "decomposition", "achieved f", "c(chosen)",
            "bound at opt"});
  for (int trial = 0; trial < 4; ++trial) {
    FacilityLocationFunction fl =
        FacilityLocationFunction::Random(12, 36, 4.0, &rng);
    const std::string name = "facloc#" + std::to_string(trial);
    GreedyResult opt = ExhaustiveMax(fl);
    Decomposition canonical = CanonicalDecomposition(fl);
    Decomposition shifted = canonical;
    for (double& c : shifted.costs) c += 2.0;
    Decomposition improved = ImproveDecomposition(fl, shifted);
    Decomposition fixpoint = ImproveDecomposition(fl, canonical);
    r->Check(name + ": Prop 2 maps c* to itself",
             std::equal(fixpoint.costs.begin(), fixpoint.costs.end(),
                        canonical.costs.begin(), [](double a, double b) {
                          return std::fabs(a - b) <= 1e-9;
                        }));
    const std::pair<const char*, const Decomposition*> cases[] = {
        {"canonical c* (Prop 1)", &canonical},
        {"c* + positive shift", &shifted},
        {"shift improved (Prop 2)", &improved}};
    for (const auto& [label, d] : cases) {
      GreedyResult res = MarginalGreedy(fl, *d);
      const double c_opt = std::max(d->CostOf(opt.selected), 1e-9);
      r->Row({name, label, FormatDouble(res.value, 3),
              FormatDouble(d->CostOf(res.selected), 3),
              FormatDouble(Theorem1Bound(opt.value, c_opt), 3)});
    }
  }
  r->EndTable();

  r->Table("E11", "canonical vs use-benefit decomposition on TPCD BQ3/BQ5",
           {"batch", "decomposition", "est. cost (s)", "#materialized",
            "bc() calls"});
  for (int bq : {3, 5}) {
    auto b = MakeBatch(MakeTpcdCatalog(1), MakeBatchedWorkload(bq));
    for (DecompositionKind kind :
         {DecompositionKind::kCanonical, DecompositionKind::kUseBenefit}) {
      MarginalGreedyMqoOptions options;
      options.decomposition = kind;
      MqoResult res = RunMarginalGreedy(b->problem.get(), options);
      r->Row({"BQ" + std::to_string(bq),
              kind == DecompositionKind::kCanonical ? "canonical (Prop 1)"
                                                    : "use-benefit (heuristic)",
              Seconds(res.total_cost), std::to_string(res.num_materialized),
              std::to_string(res.optimizations)});
    }
  }
  r->EndTable();
}

/// Incremental re-optimization plans what a fresh one plans, with far fewer
/// operator costings.
void Incremental(Report* r) {
  r->Table("E13", "incremental re-optimization ablation",
           {"batch", "mode", "greedy cost (s)", "marginal cost (s)",
            "op costings", "delta reuses", "wall (ms)"});
  for (int bq : {2, 4, 6}) {
    const std::string name = "BQ" + std::to_string(bq);
    double costs[2][2];
    for (int inc = 0; inc < 2; ++inc) {
      BatchOptimizerOptions options;
      options.incremental = inc == 1;
      auto b = MakeBatch(MakeTpcdCatalog(1), MakeBatchedWorkload(bq),
                         CostParams(), options);
      WallTimer timer;
      MqoResult g = RunGreedy(b->problem.get());
      MqoResult m = RunMarginalGreedy(b->problem.get());
      costs[inc][0] = g.total_cost;
      costs[inc][1] = m.total_cost;
      r->Row({name, inc ? "incremental" : "fresh", Seconds(g.total_cost),
              Seconds(m.total_cost),
              std::to_string(b->optimizer->num_costings()),
              std::to_string(b->optimizer->num_incremental()),
              FormatDouble(timer.ElapsedMillis(), 1)});
    }
    r->Check(name + ": Greedy cost incremental == fresh",
             std::fabs(costs[0][0] - costs[1][0]) <= 1e-6);
    r->Check(name + ": MarginalGreedy cost incremental == fresh",
             std::fabs(costs[0][1] - costs[1][1]) <= 1e-6);
  }
  r->EndTable();
}

/// The knapsack ratio greedy reproduces MarginalGreedy at the budget
/// c(X_mg) and over- or under-shoots elsewhere. The budget is not known in
/// advance, so a sweep cannot replace MarginalGreedy.
void Knapsack(Report* r) {
  Rng rng(31);
  r->Table("E14", "MarginalGreedy vs Sviridenko budget sweep",
           {"instance", "budget (xC*)", "knapsack f", "marginal f",
            "same set"});
  int matches_at_cstar = 0;
  const int instances = 6;
  for (int trial = 0; trial < instances; ++trial) {
    FacilityLocationFunction f =
        FacilityLocationFunction::Random(12, 30, 4.0, &rng);
    Decomposition d = PositiveCosts(CanonicalDecomposition(f));
    GreedyResult mg = MarginalGreedy(f, d);
    const double c_star = std::max(d.CostOf(mg.selected), 1e-9);
    for (double scale : {0.5, 1.0, 2.0}) {
      GreedyResult ks = KnapsackRatioGreedy(f, d, scale * c_star);
      const bool same = ks.selected == mg.selected;
      if (scale == 1.0 && same) ++matches_at_cstar;
      r->Row({"facloc#" + std::to_string(trial), FormatDouble(scale, 1),
              FormatDouble(ks.value, 3), FormatDouble(mg.value, 3),
              same ? "yes" : "no"});
    }
  }
  r->EndTable();
  std::printf("knapsack greedy at budget c(X_mg) matched MarginalGreedy on "
              "%d/%d instances\n\n",
              matches_at_cstar, instances);
  r->Check("knapsack at c(X_mg) matches on at least half the instances",
           matches_at_cstar * 2 >= instances);
}

/// A strict superset of operators can only lower the best plan cost, and
/// the MQO shapes must hold with it.
void IndexNestedLoops(Report* r) {
  r->Table("INLJ", "extension ablation: index nested-loops join",
           {"batch", "operators", "volcano (s)", "marginal (s)",
            "#materialized"});
  for (int bq : {1, 3, 5}) {
    const std::string name = "BQ" + std::to_string(bq);
    double volcano_costs[2];
    for (int inlj = 0; inlj < 2; ++inlj) {
      BatchOptimizerOptions options;
      options.search.enable_index_nl_join = inlj == 1;
      auto b = MakeBatch(MakeTpcdCatalog(1), MakeBatchedWorkload(bq),
                         CostParams(), options);
      MqoResult volcano = RunVolcano(b->problem.get());
      MqoResult marginal = RunMarginalGreedy(b->problem.get());
      volcano_costs[inlj] = volcano.total_cost;
      const std::string operators = inlj ? "paper set + INLJ" : "paper set";
      r->Check(name + " " + operators + ": MarginalGreedy <= Volcano",
               marginal.total_cost <= volcano.total_cost + 1e-6);
      r->Row({name, operators, Seconds(volcano.total_cost),
              Seconds(marginal.total_cost),
              std::to_string(marginal.num_materialized)});
    }
    r->Check(name + ": INLJ never raises the Volcano cost",
             volcano_costs[1] <= volcano_costs[0] + 1e-6);
  }
  r->EndTable();
}

}  // namespace

int main() {
  Report report;
  Example1(&report);
  Figure4(&report, "E2", "Figure 4a — batched TPCD, 1GB total size", 1,
          CostParams());
  Figure4(&report, "E3", "Figure 4b — batched TPCD, 100GB total size", 100,
          CostParams());
  Figure4(&report, "E12", "Figure 4 with 128MB operator memory, 1GB", 1,
          LargeMemoryParams());
  Figure4(&report, "E12", "Figure 4 with 128MB operator memory, 100GB", 100,
          LargeMemoryParams());
  Figure5(&report, "E5", "Figure 5a — stand-alone TPCD, 1GB total size", 1);
  Figure5(&report, "E6", "Figure 5b — stand-alone TPCD, 100GB total size", 100);
  TheoremOneSynthetic(&report);
  TheoremOneOnBatches(&report);
  Pruning(&report);
  Lazy(&report);
  Decompositions(&report);
  Incremental(&report);
  Knapsack(&report);
  IndexNestedLoops(&report);
  return report.Finish();
}
