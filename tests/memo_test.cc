// Tests for the LQDAG memo: hash-consing unification, congruence-closure
// merging through transformation rules, subsumption rules, attribute
// derivation, and shareable-node detection.

#include <gtest/gtest.h>

#include <algorithm>

#include "lqdag/memo.h"
#include "lqdag/rules.h"
#include "workload/example1.h"

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
