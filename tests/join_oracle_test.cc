// Oracle tests for the vector engine's join and sort kernels.
//
// Hash joins (HashJoinBatch, and a ProbeChunkOp pipeline with and without
// Bloom pushdown) are checked against a nested-loop reference; merge joins
// and sorts against an argsort over the cell comparators (std::stable_sort
// with CellLess, runs re-verified with CellsEqual). Every check demands
// identical rows in identical order, at every thread count, over every
// physical key form: plain and FOR-encoded int64, doubles with signed zeros
// and NaN, and strings sharing a dictionary, with different dictionaries
// and raw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "vexec/pipeline.h"
#include "vexec/vector_ops.h"

namespace mqo {
namespace {

ColumnVector Ints(std::vector<int64_t> values) {
  ColumnVector col(VecType::kInt64);
  col.ints() = std::move(values);
  return col;
}

/// A FOR-encoded int64 column (always encoded, even when not smaller).
ColumnVector ForInts(const std::vector<int64_t>& values) {
  return ColumnVector::FromFor(ForColumn::Encode(values));
}

ColumnVector Doubles(std::vector<double> values) {
  ColumnVector col(VecType::kDouble);
  col.doubles() = std::move(values);
  return col;
}

ColumnVector RawStrings(std::vector<std::string> values) {
  ColumnVector col(VecType::kString);
  col.strings() = std::move(values);
  return col;
}

ColumnVector DictStrings(std::vector<std::string> values) {
  ColumnVector col = RawStrings(std::move(values));
  col.DictEncode();
  return col;
}

/// `values` encoded in `like`'s dictionary (every value must be in it).
ColumnVector SameDictStrings(const ColumnVector& like,
                             const std::vector<std::string>& values) {
  std::vector<int32_t> codes;
  for (const auto& v : values) codes.push_back(like.dict()->Lookup(v));
  return ColumnVector::FromDict(like.dict(), std::move(codes));
}

/// base + (i * step) % mod for i in [0, n).
std::vector<int64_t> Cycle(int n, int mod, int step = 1, int64_t base = 0) {
  std::vector<int64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(base + (int64_t{i} * step) % mod);
  return out;
}

/// from[i] for each index.
template <typename T>
std::vector<T> Pick(const std::vector<T>& from,
                    const std::vector<int64_t>& indices) {
  std::vector<T> out;
  for (int64_t i : indices) out.push_back(from[i]);
  return out;
}

/// prefix + the decimal of each number.
std::vector<std::string> Names(const std::string& prefix,
                               const std::vector<int64_t>& numbers) {
  std::vector<std::string> out;
  for (int64_t v : numbers) out.push_back(prefix + std::to_string(v));
  return out;
}

/// One join side: the named key columns plus a unique row id column, so
/// the output's row identity is checkable even for duplicate keys.
ColumnBatch Side(const std::string& alias,
                 std::vector<std::pair<std::string, ColumnVector>> keys) {
  ColumnBatch batch;
  batch.num_rows = keys.front().second.size();
  for (auto& [name, col] : keys) {
    batch.names.emplace_back(alias, name);
    batch.columns.push_back(std::move(col));
  }
  std::vector<int64_t> ids(batch.num_rows);
  std::iota(ids.begin(), ids.end(), 0);
  batch.names.emplace_back(alias, "id");
  batch.columns.push_back(Ints(std::move(ids)));
  return batch;
}

/// Joins l.<key> = r.<key> for every key name.
struct JoinCase {
  std::string name;
  ColumnBatch left;
  ColumnBatch right;
  std::vector<std::string> keys;

  JoinPredicate predicate() const {
    std::vector<JoinCondition> conds;
    for (const auto& k : keys) {
      JoinCondition cond;
      cond.left = ColumnRef("l", k);
      cond.right = ColumnRef("r", k);
      conds.push_back(cond);
    }
    return JoinPredicate(std::move(conds));
  }
};

std::vector<JoinCase> Cases() {
  std::vector<JoinCase> cases;
  auto add = [&](std::string name, ColumnBatch left, ColumnBatch right,
                 std::vector<std::string> keys) {
    cases.push_back({std::move(name), std::move(left), std::move(right),
                     std::move(keys)});
  };
  add("int64", Side("l", {{"k", Ints(Cycle(200, 37))}}),
      Side("r", {{"k", Ints(Cycle(150, 53, 7))}}), {"k"});
  // Several FOR blocks per side, and a build big enough for every
  // partition count.
  add("for_int64", Side("l", {{"k", ForInts(Cycle(1500, 311, 1, 1000000))}}),
      Side("r", {{"k", ForInts(Cycle(1200, 401, 3, 1000000))}}), {"k"});
  add("for_vs_plain", Side("l", {{"k", ForInts(Cycle(1100, 97, 1, -40))}}),
      Side("r", {{"k", Ints(Cycle(300, 71, 1, -30))}}), {"k"});
  // Integral doubles match; halves match nothing.
  std::vector<double> halves;
  for (int64_t v : Cycle(100, 60)) halves.push_back(v / 2.0);
  add("int64_vs_double", Side("l", {{"k", Ints(Cycle(120, 40))}}),
      Side("r", {{"k", Doubles(halves)}}), {"k"});
  // The build's first key is NaN: NaN must not poison its key range.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  add("signed_zero_nan",
      Side("l", {{"k", Doubles(Pick<double>({0.0, -0.0, nan, 1.5, -0.0, nan,
                                             2.0},
                                            Cycle(49, 7)))}}),
      Side("r", {{"k", Doubles(Pick<double>({nan, 1.5, -0.0, 2.0, 0.0, nan,
                                             -0.0},
                                            Cycle(20, 7, 3)))}}),
      {"k"});
  const ColumnVector shared = DictStrings(Names("s", Cycle(300, 23)));
  add("same_dict", Side("l", {{"k", shared}}),
      Side("r", {{"k", SameDictStrings(shared, Names("s", Cycle(90, 23, 5)))}}),
      {"k"});
  add("different_dicts",
      Side("l", {{"k", DictStrings(Names("s", Cycle(300, 23)))}}),
      Side("r", {{"k", DictStrings(Names("s", Cycle(90, 31, 1, 10)))}}), {"k"});
  add("raw_strings", Side("l", {{"k", RawStrings(Names("v", Cycle(200, 17)))}}),
      Side("r", {{"k", RawStrings(Names("v", Cycle(80, 29)))}}), {"k"});
  add("raw_vs_dict", Side("l", {{"k", RawStrings(Names("v", Cycle(200, 17)))}}),
      Side("r", {{"k", DictStrings(Names("v", Cycle(80, 29)))}}), {"k"});
  add("two_keys",
      Side("l", {{"k", Ints(Cycle(240, 5))},
                 {"k2", DictStrings(Names("t", Cycle(240, 3)))}}),
      Side("r", {{"k", ForInts(Cycle(180, 7))},
                 {"k2", RawStrings(Names("t", Cycle(180, 4)))}}),
      {"k", "k2"});
  add("repeated_key", Side("l", {{"k", Ints({7, 1, 7, 3, 7, 9})}}),
      Side("r", {{"k", Ints(std::vector<int64_t>(10000, 7))}}), {"k"});
  add("empty_build", Side("l", {{"k", Ints(Cycle(50, 50))}}),
      Side("r", {{"k", Ints({})}}), {"k"});
  add("cross_product", Side("l", {{"k", Ints(Cycle(30, 4))}}),
      Side("r", {{"k", Ints(Cycle(20, 3))}}), {});
  add("number_vs_string", Side("l", {{"k", Ints(Cycle(40, 4))}}),
      Side("r", {{"k", DictStrings(Names("", Cycle(30, 4)))}}), {"k"});
  return cases;
}

/// Matching (left row, right row) pairs, in output order.
struct Pairs {
  SelVector left;
  SelVector right;
};

std::vector<JoinSpec::Cond> CondsOf(const JoinCase& c) {
  return ResolveJoinSpec(c.left.names, c.right.names, c.predicate())
      .ValueOrDie()
      .conds;
}

/// The inner join by definition: left-major, right rows ascending.
Pairs NestedLoopPairs(const JoinCase& c) {
  const std::vector<JoinSpec::Cond> conds = CondsOf(c);
  Pairs pairs;
  for (uint32_t l = 0; l < c.left.num_rows; ++l) {
    for (uint32_t r = 0; r < c.right.num_rows; ++r) {
      bool match = true;
      for (const auto& cond : conds) {
        match = match && ColumnVector::CellsEqual(c.left.columns[cond.left], l,
                                                  c.right.columns[cond.right],
                                                  r);
      }
      if (!match) continue;
      pairs.left.push_back(l);
      pairs.right.push_back(r);
    }
  }
  return pairs;
}

/// Lexicographic key order through the cell comparator.
bool OracleKeyLess(const ColumnBatch& a, uint32_t i, const ColumnBatch& b,
                   uint32_t j, const std::vector<int>& a_cols,
                   const std::vector<int>& b_cols) {
  for (size_t c = 0; c < a_cols.size(); ++c) {
    const ColumnVector& ca = a.columns[a_cols[c]];
    const ColumnVector& cb = b.columns[b_cols[c]];
    if (ColumnVector::CellLess(ca, i, cb, j)) return true;
    if (ColumnVector::CellLess(cb, j, ca, i)) return false;
  }
  return false;
}

SelVector OracleSortOrder(const ColumnBatch& in, const std::vector<int>& cols) {
  SelVector order(in.num_rows);
  for (uint32_t i = 0; i < in.num_rows; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return OracleKeyLess(in, a, in, b, cols, cols);
  });
  return order;
}

/// Sort-merge over the cell comparators: equal-key runs found with
/// !CellLess both ways, each pair re-verified with CellsEqual.
Pairs OracleMergePairs(const JoinCase& c) {
  const std::vector<JoinSpec::Cond> conds = CondsOf(c);
  if (conds.empty()) return NestedLoopPairs(c);
  std::vector<int> lcols;
  std::vector<int> rcols;
  for (const auto& cond : conds) {
    lcols.push_back(cond.left);
    rcols.push_back(cond.right);
  }
  const ColumnBatch& left = c.left;
  const ColumnBatch& right = c.right;
  const SelVector lorder = OracleSortOrder(left, lcols);
  const SelVector rorder = OracleSortOrder(right, rcols);
  Pairs pairs;
  size_t li = 0;
  size_t ri = 0;
  while (li < lorder.size() && ri < rorder.size()) {
    if (OracleKeyLess(left, lorder[li], right, rorder[ri], lcols, rcols)) {
      ++li;
      continue;
    }
    if (OracleKeyLess(right, rorder[ri], left, lorder[li], rcols, lcols)) {
      ++ri;
      continue;
    }
    size_t le = li + 1;
    while (le < lorder.size() &&
           !OracleKeyLess(left, lorder[li], left, lorder[le], lcols, lcols)) {
      ++le;
    }
    size_t re = ri + 1;
    while (re < rorder.size() &&
           !OracleKeyLess(right, rorder[ri], right, rorder[re], rcols, rcols)) {
      ++re;
    }
    for (size_t a = li; a < le; ++a) {
      for (size_t b = ri; b < re; ++b) {
        bool match = true;
        for (const auto& cond : conds) {
          match = match && ColumnVector::CellsEqual(left.columns[cond.left],
                                                    lorder[a],
                                                    right.columns[cond.right],
                                                    rorder[b]);
        }
        if (!match) continue;
        pairs.left.push_back(lorder[a]);
        pairs.right.push_back(rorder[b]);
      }
    }
    li = le;
    ri = re;
  }
  return pairs;
}

/// Cell identity: same string, or the same number down to the sign of zero
/// (any NaN equals any NaN).
bool SameCell(const ColumnVector& a, size_t i, const ColumnVector& b,
              size_t j) {
  if (a.is_numeric() != b.is_numeric()) return false;
  if (!a.is_numeric()) return a.StringAt(i) == b.StringAt(j);
  const double x = a.Number(i);
  const double y = b.Number(j);
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return x == y && std::signbit(x) == std::signbit(y);
}

/// `out` must be the left columns at `want.left` then the right columns at
/// `want.right`, row for row.
void ExpectJoinRows(const ColumnBatch& out, const JoinCase& c,
                    const Pairs& want, const std::string& context) {
  ASSERT_EQ(out.num_rows, want.left.size()) << context;
  const size_t left_cols = c.left.columns.size();
  ASSERT_EQ(out.columns.size(), left_cols + c.right.columns.size()) << context;
  for (size_t oc = 0; oc < out.columns.size(); ++oc) {
    const bool is_left = oc < left_cols;
    const ColumnVector& src = is_left ? c.left.columns[oc]
                                      : c.right.columns[oc - left_cols];
    const SelVector& rows = is_left ? want.left : want.right;
    for (size_t i = 0; i < out.num_rows; ++i) {
      ASSERT_TRUE(SameCell(out.columns[oc], i, src, rows[i]))
          << context << ": output row " << i << " column "
          << out.names[oc].ToString();
    }
  }
}

/// The join as a compiled probe pipeline: `c.left` streams through a
/// ProbeChunkOp over a table built on `c.right`.
Result<ColumnBatch> RunProbePipeline(const JoinCase& c, const ExecOptions& exec,
                                     bool bloom) {
  MQO_ASSIGN_OR_RETURN(
      JoinSpec spec, ResolveJoinSpec(c.left.names, c.right.names,
                                     c.predicate()));
  std::vector<int> probe_keys;
  std::vector<int> build_keys;
  for (const auto& cond : spec.conds) {
    probe_keys.push_back(cond.left);
    build_keys.push_back(cond.right);
  }
  auto table = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(c.right, std::move(build_keys), exec));
  VecPipeline pipe;
  pipe.source = c.left;
  for (size_t i = 0; i < c.left.columns.size(); ++i) {
    pipe.keep_idx.push_back(static_cast<int>(i));
  }
  pipe.chunk_names = c.left.names;
  if (bloom && table->bloom() != nullptr) {
    pipe.bloom = table->bloom();
    pipe.bloom_key_idx = probe_keys;
  }
  pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
      table, probe_keys, pipe.keep_idx, std::move(spec.out_names)));
  return RunVecPipeline(pipe, exec);
}

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kMorselRows = 16;  // Many morsels per side.

TEST(JoinOracleTest, HashJoinMatchesNestedLoopAtEveryThreadCount) {
  for (const JoinCase& c : Cases()) {
    const Pairs want = NestedLoopPairs(c);
    for (int threads : kThreadCounts) {
      const std::string context = c.name + " t" + std::to_string(threads);
      auto got = HashJoinBatch(c.left, c.right, c.predicate(), threads,
                               kMorselRows);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      ExpectJoinRows(got.ValueOrDie(), c, want, context);
    }
  }
}

TEST(JoinOracleTest, ProbePipelineMatchesNestedLoopAtEveryThreadCount) {
  for (const JoinCase& c : Cases()) {
    const Pairs want = NestedLoopPairs(c);
    for (int threads : kThreadCounts) {
      for (bool bloom : {false, true}) {
        const std::string context = c.name + " t" + std::to_string(threads) +
                                    (bloom ? " bloom" : "");
        ExecOptions exec;
        exec.num_threads = threads;
        exec.morsel_rows = kMorselRows;
        auto got = RunProbePipeline(c, exec, bloom);
        ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
        ExpectJoinRows(got.ValueOrDie(), c, want, context);
      }
    }
  }
}

TEST(JoinOracleTest, MergeJoinMatchesCellComparatorSortMerge) {
  for (const JoinCase& c : Cases()) {
    auto got = MergeJoinBatch(c.left, c.right, c.predicate());
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
    ExpectJoinRows(got.ValueOrDie(), c, OracleMergePairs(c), c.name);
  }
}

TEST(JoinOracleTest, SortMatchesCellComparatorStableSort) {
  for (const JoinCase& c : Cases()) {
    for (const ColumnBatch* in : {&c.left, &c.right}) {
      // Every key column most-significant first, then reversed, then the
      // unique id last (a no-op tiebreak that must not disturb stability).
      const std::string& alias = in->names[0].qualifier;
      std::vector<SortOrder> orders(2);
      for (const auto& k : c.keys) {
        orders[0].emplace_back(alias, k);
        orders[1].insert(orders[1].begin(), ColumnRef(alias, k));
      }
      orders.push_back(orders[0]);
      orders.back().emplace_back(alias, "id");
      for (const SortOrder& order : orders) {
        if (order.empty()) continue;
        std::vector<int> cols;
        for (const auto& col : order) cols.push_back(in->ColumnIndex(col));
        const SelVector want = OracleSortOrder(*in, cols);
        auto got = SortBatch(*in, order);
        const std::string context =
            c.name + " sort " + alias + " by " + std::to_string(order.size()) +
            " keys";
        ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
        const ColumnBatch& out = got.ValueOrDie();
        ASSERT_EQ(out.num_rows, in->num_rows) << context;
        for (size_t col = 0; col < in->columns.size(); ++col) {
          for (size_t i = 0; i < out.num_rows; ++i) {
            ASSERT_TRUE(SameCell(out.columns[col], i, in->columns[col],
                                 want[i]))
                << context << ": row " << i << " column " << col;
          }
        }
      }
    }
  }
}

TEST(JoinOracleTest, CasesCoverMatchesAndEdges) {
  // Guards the oracle itself: the cases must produce real matches where
  // expected, and none where the key forms cannot meet.
  for (const JoinCase& c : Cases()) {
    const size_t matches = NestedLoopPairs(c).left.size();
    if (c.name == "empty_build" || c.name == "number_vs_string") {
      EXPECT_EQ(matches, 0u) << c.name;
    } else if (c.name == "repeated_key") {
      EXPECT_EQ(matches, 30000u);
    } else {
      EXPECT_GT(matches, 0u) << c.name;
    }
  }
}

}  // namespace
}  // namespace mqo
