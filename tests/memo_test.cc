// Tests for the LQDAG memo: hash-consing unification, congruence-closure
// merging through transformation rules, subsumption rules, the expansion
// worklist's re-visits, attribute derivation, shareable-node detection, and
// golden expansions of the paper's batches and a dashboard batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>

#include "catalog/tpcd.h"
#include "common/hash.h"
#include "lqdag/memo.h"
#include "lqdag/rules.h"
#include "support/dashboard.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

JoinCondition KeyJoin(const char* la, const char* ra) {
  JoinCondition c;
  c.left = ColumnRef(la, "k");
  c.right = ColumnRef(ra, "k");
  return c;
}

class MemoTest : public ::testing::Test {
 protected:
  MemoTest() : catalog_(MakeExample1Catalog()), memo_(&catalog_) {}
  Catalog catalog_;
  Memo memo_;
};

TEST_F(MemoTest, IdenticalTreesUnify) {
  auto queries = MakeExample1Queries();
  EqId a = memo_.Insert(NormalizeTree(queries[0]));
  EqId b = memo_.Insert(NormalizeTree(queries[0]));
  EXPECT_EQ(memo_.Find(a), memo_.Find(b));
}

TEST_F(MemoTest, SharedSubtreeUnifiesAcrossQueries) {
  // Both queries contain the scan of B; with q2 written as (B ⋈ C) ⋈ D, the
  // memo also shares the (B ⋈ C) class once q1's A ⋈ (B ⋈ C) variant is
  // derived by expansion. Before expansion, at least base scans unify.
  auto queries = MakeExample1Queries();
  memo_.InsertBatch(queries);
  int scan_classes = 0;
  for (EqId cls : memo_.AllClasses()) {
    if (memo_.IsBaseRelation(cls)) ++scan_classes;
  }
  EXPECT_EQ(scan_classes, 4);  // A, B, C, D each exactly once
}

TEST_F(MemoTest, CommutativityAddsOpToSameClass) {
  auto join = LogicalExpr::Join(LogicalExpr::Scan("A"), LogicalExpr::Scan("B"),
                                JoinPredicate({KeyJoin("A", "B")}));
  EqId cls = memo_.Insert(NormalizeTree(join));
  const int before = static_cast<int>(memo_.ClassOps(cls).size());
  ExpansionOptions opts;
  ASSERT_TRUE(ExpandMemo(&memo_, opts).ok());
  const int after = static_cast<int>(memo_.ClassOps(memo_.Find(cls)).size());
  EXPECT_EQ(before, 1);
  EXPECT_EQ(after, 2);  // original + commuted
}

TEST_F(MemoTest, AssociativityProvesJoinOrderEquivalence) {
  // (A ⋈ B) ⋈ C inserted separately from A ⋈ (B ⋈ C) must end in one class
  // after expansion (congruence closure).
  auto left_assoc = LogicalExpr::Join(
      LogicalExpr::Join(LogicalExpr::Scan("A"), LogicalExpr::Scan("B"),
                        JoinPredicate({KeyJoin("A", "B")})),
      LogicalExpr::Scan("C"), JoinPredicate({KeyJoin("B", "C")}));
  auto right_assoc = LogicalExpr::Join(
      LogicalExpr::Scan("A"),
      LogicalExpr::Join(LogicalExpr::Scan("B"), LogicalExpr::Scan("C"),
                        JoinPredicate({KeyJoin("B", "C")})),
      JoinPredicate({KeyJoin("A", "B")}));
  EqId e1 = memo_.Insert(NormalizeTree(left_assoc));
  EqId e2 = memo_.Insert(NormalizeTree(right_assoc));
  EXPECT_NE(memo_.Find(e1), memo_.Find(e2));  // distinct before expansion
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  EXPECT_EQ(memo_.Find(e1), memo_.Find(e2));
  EXPECT_GT(memo_.num_merges(), 0);
}

TEST_F(MemoTest, ExpansionGeneratesAllBushyOrdersForChain) {
  // Chain join A-B-C-D: connected subsets {AB, BC, CD, ABC, BCD, ABCD} plus
  // 4 base classes = 10 classes.
  auto chain = LogicalExpr::Join(
      LogicalExpr::Join(
          LogicalExpr::Join(LogicalExpr::Scan("A"), LogicalExpr::Scan("B"),
                            JoinPredicate({KeyJoin("A", "B")})),
          LogicalExpr::Scan("C"), JoinPredicate({KeyJoin("B", "C")})),
      LogicalExpr::Scan("D"), JoinPredicate({KeyJoin("C", "D")}));
  memo_.Insert(NormalizeTree(chain));
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  EXPECT_EQ(static_cast<int>(memo_.AllClasses().size()), 10);
}

TEST_F(MemoTest, JoinIsRevisitedWhenItsLeftClassGainsAJoin) {
  // The 4-cycle A - B - C - D - A, inserted as (A ⋈ B) ⋈ (D ⋈ C).
  // Expansion visits the joins (B ⋈ C ⋈ D) ⋈ A and (A ⋈ C ⋈ D) ⋈ B before
  // their left classes gain (B ⋈ C) ⋈ D and (A ⋈ D) ⋈ C, which joins
  // visited later derive. Only a second visit of the two derives
  // (B ⋈ C) ⋈ (A ⋈ D) and its commuted form.
  auto ab = LogicalExpr::Join(LogicalExpr::Scan("A"), LogicalExpr::Scan("B"),
                              JoinPredicate({KeyJoin("A", "B")}));
  auto dc = LogicalExpr::Join(LogicalExpr::Scan("D"), LogicalExpr::Scan("C"),
                              JoinPredicate({KeyJoin("C", "D")}));
  const EqId top = memo_.Insert(NormalizeTree(LogicalExpr::Join(
      ab, dc, JoinPredicate({KeyJoin("A", "D"), KeyJoin("B", "C")}))));
  ASSERT_TRUE(ExpandMemo(&memo_).ok());

  // Connected subsets of the cycle: 4 scans, 4 pairs, 4 triples and the
  // whole. The top class holds each split into two connected halves, in
  // both orders: 4 single/triple splits and AB|CD, BC|AD.
  EXPECT_EQ(memo_.AllClasses().size(), 13u);
  EXPECT_EQ(memo_.ClassOps(top).size(), 12u);
  const auto holds = [&](EqId cls, const char* x, const char* y) {
    std::vector<std::string> quals;
    for (const auto& a : memo_.Attributes(cls)) quals.push_back(a.qualifier);
    quals.erase(std::unique(quals.begin(), quals.end()), quals.end());
    return quals == std::vector<std::string>{x, y};
  };
  bool bc_ad = false;
  for (OpId oid : memo_.ClassOps(top)) {
    const MemoOp& op = memo_.op(oid);
    bc_ad |= holds(op.children[0], "B", "C") && holds(op.children[1], "A", "D");
  }
  EXPECT_TRUE(bc_ad) << memo_.ToString();
  const int ops = memo_.num_ops();
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  EXPECT_EQ(memo_.num_ops(), ops) << "a second expansion still derived";
}

TEST_F(MemoTest, ExpansionIsIdempotent) {
  memo_.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  const int ops = memo_.num_live_ops();
  const int classes = static_cast<int>(memo_.AllClasses().size());
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  EXPECT_EQ(memo_.num_live_ops(), ops);
  EXPECT_EQ(static_cast<int>(memo_.AllClasses().size()), classes);
}

TEST_F(MemoTest, SharedJoinBecomesShareable) {
  memo_.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  auto shareable = ShareableNodes(memo_);
  // (B ⋈ C) is used by both query classes; it must be among the shareable
  // nodes. Base relations must not be.
  bool found_bc = false;
  for (EqId cls : shareable) {
    EXPECT_FALSE(memo_.IsBaseRelation(cls));
    const auto& attrs = memo_.Attributes(cls);
    std::vector<std::string> quals;
    for (const auto& a : attrs) quals.push_back(a.qualifier);
    std::sort(quals.begin(), quals.end());
    quals.erase(std::unique(quals.begin(), quals.end()), quals.end());
    if (quals == std::vector<std::string>{"B", "C"}) found_bc = true;
  }
  EXPECT_TRUE(found_bc);
}

TEST_F(MemoTest, AttributesOfJoinAreUnionOfChildren) {
  auto join = LogicalExpr::Join(LogicalExpr::Scan("A"), LogicalExpr::Scan("B"),
                                JoinPredicate({KeyJoin("A", "B")}));
  EqId cls = memo_.Insert(NormalizeTree(join));
  const auto& attrs = memo_.Attributes(cls);
  EXPECT_EQ(attrs.size(), 4u);  // A.k, A.payload, B.k, B.payload
}

TEST_F(MemoTest, TopologicalOrderPutsChildrenFirst) {
  memo_.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  auto topo = memo_.TopologicalClasses();
  std::vector<int> position(memo_.num_classes(), -1);
  for (size_t i = 0; i < topo.size(); ++i) position[topo[i]] = static_cast<int>(i);
  for (EqId cls : topo) {
    for (OpId oid : memo_.ClassOps(cls)) {
      for (EqId child : memo_.op(oid).children) {
        EXPECT_LT(position[memo_.Find(child)], position[cls]);
      }
    }
  }
}

TEST_F(MemoTest, RootIsBatchClass) {
  memo_.InsertBatch(MakeExample1Queries());
  EqId root = memo_.root();
  ASSERT_GE(root, 0);
  bool has_batch = false;
  for (OpId oid : memo_.ClassOps(root)) {
    if (memo_.op(oid).kind == LogicalOp::kBatch) has_batch = true;
  }
  EXPECT_TRUE(has_batch);
}

TEST_F(MemoTest, SelectSubsumptionDerivesTighterFromWeaker) {
  // sigma_{k<100}(A) and sigma_{k<500}(A): expansion must add an operator in
  // the tighter class whose child is the weaker class.
  Comparison tight;
  tight.column = ColumnRef("A", "k");
  tight.op = CompareOp::kLt;
  tight.literal = Literal(100.0);
  Comparison weak = tight;
  weak.literal = Literal(500.0);
  EqId tight_cls =
      memo_.Insert(NormalizeTree(LogicalExpr::Select(LogicalExpr::Scan("A"),
                                                     Predicate({tight}))));
  EqId weak_cls =
      memo_.Insert(NormalizeTree(LogicalExpr::Select(LogicalExpr::Scan("A"),
                                                     Predicate({weak}))));
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  bool derived = false;
  for (OpId oid : memo_.ClassOps(memo_.Find(tight_cls))) {
    const MemoOp& op = memo_.op(oid);
    if (op.kind == LogicalOp::kSelect &&
        memo_.Find(op.children[0]) == memo_.Find(weak_cls)) {
      derived = true;
    }
  }
  EXPECT_TRUE(derived);
  // And never the other way around (weaker from tighter).
  for (OpId oid : memo_.ClassOps(memo_.Find(weak_cls))) {
    const MemoOp& op = memo_.op(oid);
    if (op.kind == LogicalOp::kSelect) {
      EXPECT_NE(memo_.Find(op.children[0]), memo_.Find(tight_cls));
    }
  }
}

TEST_F(MemoTest, AggregateSubsumptionDerivesCoarserFromFiner) {
  auto scan = LogicalExpr::Scan("A");
  AggExpr sum;
  sum.func = AggFunc::kSum;
  sum.arg = ColumnRef("A", "k");
  auto fine = LogicalExpr::Aggregate(
      scan, {ColumnRef("A", "k"), ColumnRef("A", "payload")}, {sum});
  auto coarse = LogicalExpr::Aggregate(scan, {ColumnRef("A", "payload")}, {sum});
  EqId fine_cls = memo_.Insert(NormalizeTree(fine));
  EqId coarse_cls = memo_.Insert(NormalizeTree(coarse));
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  bool derived = false;
  for (OpId oid : memo_.ClassOps(memo_.Find(coarse_cls))) {
    const MemoOp& op = memo_.op(oid);
    if (op.kind == LogicalOp::kAggregate &&
        memo_.Find(op.children[0]) == memo_.Find(fine_cls)) {
      derived = true;
      EXPECT_FALSE(op.output_renames.empty());
      EXPECT_EQ(op.aggregates[0].func, AggFunc::kSum);
    }
  }
  EXPECT_TRUE(derived);
}

TEST_F(MemoTest, AvgBlocksAggregateSubsumption) {
  auto scan = LogicalExpr::Scan("A");
  AggExpr avg;
  avg.func = AggFunc::kAvg;
  avg.arg = ColumnRef("A", "k");
  auto fine = LogicalExpr::Aggregate(
      scan, {ColumnRef("A", "k"), ColumnRef("A", "payload")}, {avg});
  auto coarse = LogicalExpr::Aggregate(scan, {ColumnRef("A", "payload")}, {avg});
  memo_.Insert(NormalizeTree(fine));
  EqId coarse_cls = memo_.Insert(NormalizeTree(coarse));
  ASSERT_TRUE(ExpandMemo(&memo_).ok());
  for (OpId oid : memo_.ClassOps(memo_.Find(coarse_cls))) {
    EXPECT_TRUE(memo_.op(oid).output_renames.empty());
  }
}

TEST_F(MemoTest, ExpansionFailsCleanlyWhenOpBudgetExceeded) {
  // Failure injection: a tiny max_ops budget must surface OutOfRange instead
  // of looping or crashing, and leave the memo readable.
  memo_.InsertBatch(MakeExample1Queries());
  ExpansionOptions opts;
  opts.max_ops = memo_.num_live_ops();  // no room for any new operator
  auto result = ExpandMemo(&memo_, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_GT(memo_.num_live_ops(), 0);
  EXPECT_FALSE(memo_.ToString().empty());
}

// ---- Golden expansions ------------------------------------------------------

struct ExpansionGolden {
  const char* batch;
  int classes_after;
  int ops_after;
  int merges;
  uint64_t dump_hash;  ///< HashString(Memo::ToString()) after expansion
};

// Recorded from the full-pass expansion (every operator re-derived until
// nothing changed). The worklist must build the same memo: the same class
// ids, the same operators in the same order within each class. The dump
// prints each operator's children as canonical classes; the five batches
// with merges were re-recorded when it stopped printing stored child ids.
constexpr ExpansionGolden kExpansionGoldens[] = {
    {"BQ1", 17, 29, 0, 0x7b96373ca99a3812ull},
    {"BQ2", 61, 261, 31, 0xe03e55c406a9c450ull},
    {"BQ3", 95, 400, 38, 0x5080f37f2dea5e33ull},
    {"BQ4", 164, 843, 98, 0x271d117ccdfa5d71ull},
    {"BQ5", 196, 995, 107, 0xbc0804a4e71a2469ull},
    {"BQ6", 212, 1043, 107, 0xe96c3a2021c77e24ull},
    {"dashboard48", 71, 113, 0, 0xf4d7ad66853d8060ull},
};

TEST(MemoGoldenTest, ExpansionsMatchRecording) {
  Catalog catalog = MakeTpcdCatalog(1);
  for (const ExpansionGolden& golden : kExpansionGoldens) {
    const std::string name = golden.batch;
    std::vector<LogicalExprPtr> queries;
    if (name.rfind("BQ", 0) == 0) {
      queries = MakeBatchedWorkload(std::stoi(name.substr(2)));
    } else {
      std::string error;
      ASSERT_TRUE(MakeDashboardBatch(catalog, /*num_queries=*/48,
                                     /*num_windows=*/6, &queries, &error))
          << error;
    }
    Memo memo(&catalog);
    memo.InsertBatch(queries);
    auto expanded = ExpandMemo(&memo);
    ASSERT_TRUE(expanded.ok()) << name;
    const ExpansionStats& stats = expanded.ValueOrDie();
    const std::string dump = memo.ToString();
    const uint64_t dump_hash = HashString(dump);
    char actual[128];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", %d, %d, %d, 0x%016" PRIx64 "ull}", golden.batch,
                  stats.classes_after, stats.ops_after, stats.merges,
                  dump_hash);
    EXPECT_EQ(stats.classes_after, golden.classes_after) << actual;
    EXPECT_EQ(stats.ops_after, golden.ops_after) << actual;
    EXPECT_EQ(stats.merges, golden.merges) << actual;
    EXPECT_EQ(dump_hash, golden.dump_hash) << actual;
    // Every class the dump names is one it lists.
    std::set<std::string> listed;
    for (EqId cls : memo.TopologicalClasses()) {
      listed.insert("E" + std::to_string(cls));
    }
    for (size_t at = dump.find('E'); at != std::string::npos;
         at = dump.find('E', at + 1)) {
      size_t end = at + 1;
      while (end < dump.size() && std::isdigit(dump[end])) ++end;
      if (end == at + 1) continue;
      EXPECT_EQ(listed.count(dump.substr(at, end - at)), 1u)
          << name << " names " << dump.substr(at, end - at);
    }
  }
}

TEST(PredicateImplicationTest, RangeImplications) {
  auto cmp = [](CompareOp op, double v) {
    Comparison c;
    c.column = ColumnRef("t", "x");
    c.op = op;
    c.literal = Literal(v);
    return c;
  };
  EXPECT_TRUE(ComparisonImplies(cmp(CompareOp::kLt, 5), cmp(CompareOp::kLt, 10)));
  EXPECT_FALSE(ComparisonImplies(cmp(CompareOp::kLt, 10), cmp(CompareOp::kLt, 5)));
  EXPECT_TRUE(ComparisonImplies(cmp(CompareOp::kLe, 5), cmp(CompareOp::kLt, 6)));
  EXPECT_FALSE(ComparisonImplies(cmp(CompareOp::kLe, 5), cmp(CompareOp::kLt, 5)));
  EXPECT_TRUE(ComparisonImplies(cmp(CompareOp::kEq, 5), cmp(CompareOp::kLe, 5)));
  EXPECT_TRUE(ComparisonImplies(cmp(CompareOp::kGt, 10), cmp(CompareOp::kGe, 10)));
  EXPECT_TRUE(ComparisonImplies(cmp(CompareOp::kGe, 10), cmp(CompareOp::kGe, 9)));
  EXPECT_FALSE(ComparisonImplies(cmp(CompareOp::kLt, 5), cmp(CompareOp::kGt, 1)));
}

TEST(PredicateImplicationTest, ConjunctionImplication) {
  auto cmp = [](const char* col, CompareOp op, double v) {
    Comparison c;
    c.column = ColumnRef("t", col);
    c.op = op;
    c.literal = Literal(v);
    return c;
  };
  Predicate strong({cmp("x", CompareOp::kLt, 5), cmp("y", CompareOp::kEq, 1)});
  Predicate weak({cmp("x", CompareOp::kLt, 10)});
  EXPECT_TRUE(PredicateImplies(strong, weak));
  EXPECT_FALSE(PredicateImplies(weak, strong));
}

}  // namespace
}  // namespace mqo
