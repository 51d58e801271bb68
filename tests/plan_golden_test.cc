// Golden plans and costs of the batch optimizer. For the paper's batches
// BQ1-BQ3 and a 48-query SQL dashboard burst, the test renders the
// consolidated plan of the empty set, of MarginalGreedy's pick and of 20
// seeded random subsets of the shareable nodes — every plan tree with its
// costs, and bc/buc printed with %.17g — and compares the text with the
// recording in tests/golden/plan_golden.txt. A change to the plan search
// that alters any chosen plan or any cost bit shows up as a diff.
//
// It also checks that the cost oracle agrees with the plans it reports,
// bit for bit: BestCost/BestUseCost of every set equal Plan(set)'s
// best_cost/best_use_cost, both from a fresh search and from a cone
// overlay over a base pinned one element away (with verify_cone on, which
// re-runs every overlay as a fresh search and aborts on any difference).
//
// To re-record after a deliberate plan change, run the test and copy the
// plan_golden.actual.txt it writes into its working directory over the
// recording.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/tpcd.h"
#include "common/rng.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "physical/plan.h"
#include "support/dashboard.h"
#include "support/env.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

constexpr int kRandomSubsets = 20;

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SetToString(const std::set<EqId>& s) {
  std::string out = "{";
  for (EqId e : s) {
    if (out.size() > 1) out += ",";
    out += "E" + std::to_string(e);
  }
  return out + "}";
}

/// `count` seeded subsets of `universe`, each of 1..min(|universe|, 8)
/// distinct elements.
std::vector<std::set<EqId>> RandomSubsets(const std::vector<EqId>& universe,
                                          int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::set<EqId>> out;
  const int max_size = std::min<int>(static_cast<int>(universe.size()), 8);
  for (int i = 0; i < count; ++i) {
    std::vector<EqId> pool = universe;
    const int k = rng.NextIntIn(1, max_size);
    std::set<EqId> s;
    for (int j = 0; j < k; ++j) {
      const int pick = rng.NextIntIn(j, static_cast<int>(pool.size()) - 1);
      std::swap(pool[j], pool[pick]);
      s.insert(pool[j]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Renders every golden case of one batch and checks the oracle's costs
/// against the reported plans.
std::string RenderBatch(const std::string& name, Memo* memo, uint64_t seed) {
  BatchOptimizer optimizer(memo, CostModel(), EnvOptimizerOptions());
  MaterializationProblem problem(&optimizer);
  const MqoResult greedy = RunMarginalGreedy(&problem);

  std::vector<std::pair<std::string, std::set<EqId>>> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"greedy", greedy.materialized});
  const std::vector<std::set<EqId>> subsets =
      RandomSubsets(ShareableNodes(*memo), kRandomSubsets, seed);
  for (size_t i = 0; i < subsets.size(); ++i) {
    cases.push_back({"random" + std::to_string(i), subsets[i]});
  }

  BatchOptimizerOptions overlay_opts = EnvOptimizerOptions();
  overlay_opts.verify_cone = true;
  BatchOptimizer overlay(memo, CostModel(), overlay_opts);

  std::ostringstream os;
  os << "# batch " << name << ": " << ShareableNodes(*memo).size()
     << " shareable nodes\n";
  for (const auto& [label, set] : cases) {
    const ConsolidatedPlan plan = optimizer.Plan(set);
    os << "## " << name << " " << label << " " << SetToString(set) << "\n"
       << "bc=" << Exact(plan.best_cost)
       << " buc=" << Exact(plan.best_use_cost) << "\n"
       << PlanToString(plan.root_plan);
    for (const auto& m : plan.materialized) {
      os << "-- E" << m.eq << " write=" << Exact(m.write_cost) << "\n"
         << PlanToString(m.compute_plan);
    }

    EXPECT_EQ(optimizer.BestCost(set), plan.best_cost) << name << " " << label;
    EXPECT_EQ(optimizer.BestUseCost(set), plan.best_use_cost)
        << name << " " << label;
    if (!set.empty()) {
      std::set<EqId> below = set;
      below.erase(below.begin());
      overlay.SetIncrementalBase(below);
      EXPECT_EQ(overlay.BestCost(set), plan.best_cost)
          << name << " " << label << " (overlay)";
      EXPECT_EQ(overlay.BestUseCost(set), plan.best_use_cost)
          << name << " " << label << " (overlay)";
    }
  }
  return os.str();
}

std::string GoldenPath() {
  std::string dir = __FILE__;
  dir.erase(dir.find_last_of('/') + 1);
  return dir + "golden/plan_golden.txt";
}

TEST(PlanGoldenTest, PlansAndCostsMatchRecording) {
  Catalog catalog = MakeTpcdCatalog(1);
  std::string actual;
  for (int bq = 1; bq <= 3; ++bq) {
    Memo memo(&catalog);
    memo.InsertBatch(MakeBatchedWorkload(bq));
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    actual += RenderBatch("BQ" + std::to_string(bq), &memo, 100 + bq);
  }
  {
    std::vector<LogicalExprPtr> queries;
    std::string error;
    ASSERT_TRUE(MakeDashboardBatch(catalog, /*num_queries=*/48,
                                   /*num_windows=*/6, &queries, &error))
        << error;
    Memo memo(&catalog);
    memo.InsertBatch(queries);
    ASSERT_TRUE(ExpandMemo(&memo).ok());
    actual += RenderBatch("dashboard48", &memo, 148);
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing recording " << GoldenPath();
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;

  std::ofstream("plan_golden.actual.txt") << actual;
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (more_want != more_got || want_line != got_line) {
      FAIL() << "plans differ from the recording at line " << line
             << "\n  recorded: " << (more_want ? want_line : "<end>")
             << "\n  actual:   " << (more_got ? got_line : "<end>")
             << "\n(full output written to plan_golden.actual.txt)";
    }
  }
}

}  // namespace
}  // namespace mqo
