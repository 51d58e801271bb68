// Oracle tests for the vector engine's join and aggregation operators, run
// as the engine runs them.
//
// Joins are a ProbeChunkOp pipeline — the engine runs BNL, index and merge
// join plans alike this way — checked with and without Bloom pushdown, at
// threads 1/2/4/8, against a nested loop over the cell comparator
// (CellsEqual). Every check demands identical rows in identical order over
// every physical key form: plain and FOR-encoded int64, doubles with signed
// zeros and NaN, and strings sharing a dictionary, with different
// dictionaries and raw. Cases() are small and cover each form; RadixCases()
// are large (thousands of rows, heavy duplication, signed zeros,
// negatives, infinities, subnormals, int64 past 2^53 and at ±2^62, sorted
// and reverse-sorted input, constant high bits).
//
// AggOracleTest checks the pipeline aggregate sink at threads 1/2/4
// against the row engine's AggregateRows: the same groups, emitted in
// first-occurrence order, with cells identical down to the sign of zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "exec/row_ops.h"
#include "support/pipelines.h"

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

/// n deterministic pseudo-random values base + (LCG state % mod).
std::vector<int64_t> Scrambled(int n, int64_t mod, int64_t base = 0,
                               uint64_t seed = 1) {
  std::vector<int64_t> out;
  uint64_t x = seed;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out.push_back(base + static_cast<int64_t>((x >> 33) % mod));
  }
  return out;
}

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
  // NaN among a side's keys matches nothing and hides no other key: 200
  // random keys in [0, 200) with a NaN at row 100 against 0..199, and 2000
  // random keys against 0..1999 with NaNs on both sides.
  auto with_nan = [&](std::vector<int64_t> keys,
                      const std::vector<size_t>& nan_rows) {
    std::vector<double> out(keys.begin(), keys.end());
    for (size_t r : nan_rows) out[r] = nan;
    return Doubles(std::move(out));
  };
  add("nan_one_side", Side("l", {{"k", with_nan(Scrambled(200, 200), {100})}}),
      Side("r", {{"k", with_nan(Cycle(200, 200), {})}}), {"k"});
  add("nan_both_sides",
      Side("l", {{"k", with_nan(Scrambled(2000, 2000, 0, 3), {7, 1000})}}),
      Side("r", {{"k", with_nan(Cycle(2000, 2000), {0, 999, 1999})}}), {"k"});
  return cases;
}

/// Large keyed cases: thousands of rows, heavy key duplication, every sign
/// and magnitude class of double, and int64 values past 2^53.
std::vector<JoinCase> RadixCases() {
  std::vector<JoinCase> cases;
  auto add = [&](std::string name, ColumnBatch left, ColumnBatch right,
                 std::vector<std::string> keys) {
    cases.push_back({std::move(name), std::move(left), std::move(right),
                     std::move(keys)});
  };
  add("radix_duplicates", Side("l", {{"k", Ints(Scrambled(6000, 97))}}),
      Side("r", {{"k", ForInts(Scrambled(4000, 131, -50, 7))}}), {"k"});
  // Signed zeros (one key), negatives, subnormals and both infinities.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      0.0,    -0.0,    -1.5,  1.5,  -1e300, 1e300, inf, -inf,
      4e-320, -4e-320, -2.25, 2.25, -7.0,   7.0,   -0.5};
  add("radix_signed_doubles",
      Side("l", {{"k", Doubles(Pick<double>(specials, Scrambled(3000, 15)))}}),
      Side("r", {{"k", Doubles(Pick<double>(specials,
                                            Scrambled(1000, 15, 0, 3)))}}),
      {"k"});
  // Past 2^53 neighbouring int64 values share a double, so they match as
  // equals, exactly as CellsEqual compares them.
  std::vector<int64_t> big = Scrambled(4000, 64);
  for (int64_t& v : big) v = (int64_t{1} << 53) + v * 3 - 96;
  std::vector<int64_t> huge = Scrambled(3000, 40, 0, 5);
  for (int64_t& v : huge) {
    v = (v % 2 == 0 ? 1 : -1) * ((int64_t{1} << 62) + v);
  }
  std::vector<int64_t> mixed = big;
  mixed.insert(mixed.end(), huge.begin(), huge.end());
  add("radix_int64_past_2p53", Side("l", {{"k", Ints(mixed)}}),
      Side("r", {{"k", ForInts(Scrambled(2500, 64, (int64_t{1} << 53) - 32,
                                         11))}}),
      {"k"});
  // Already sorted against reverse sorted.
  std::vector<int64_t> ascending = Cycle(5000, 5000);
  for (int64_t& v : ascending) v /= 3;
  std::vector<int64_t> descending(ascending.rbegin(), ascending.rend());
  add("radix_sorted_vs_reversed", Side("l", {{"k", Ints(ascending)}}),
      Side("r", {{"k", Ints(descending)}}), {"k"});
  // Two keys whose high digits never change: the first key is one large
  // constant plus a few low bits, the second a small dictionary.
  std::vector<int64_t> low_bits = Scrambled(4000, 4, int64_t{1} << 40, 13);
  add("radix_two_keys_constant_high",
      Side("l", {{"k", Ints(low_bits)},
                 {"k2", DictStrings(Names("t", Scrambled(4000, 5, 0, 17)))}}),
      Side("r", {{"k", ForInts(Scrambled(600, 4, int64_t{1} << 40, 19))},
                 {"k2", RawStrings(Names("t", Scrambled(600, 6, 0, 23)))}}),
      {"k", "k2"});
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

/// `out` must be every left column at `want.left` then every right column
/// at `want.right`, row for row.
void ExpectJoinRows(const ColumnBatch& out, const JoinCase& c,
                    const Pairs& want, const std::string& context) {
  ASSERT_EQ(out.num_rows, want.left.size()) << context;
  ASSERT_EQ(out.columns.size(), c.left.columns.size() + c.right.columns.size())
      << context;
  for (size_t oc = 0; oc < out.columns.size(); ++oc) {
    const bool is_left = oc < c.left.columns.size();
    const ColumnBatch& side = is_left ? c.left : c.right;
    const size_t col = is_left ? oc : oc - c.left.columns.size();
    ASSERT_EQ(out.names[oc], side.names[col]) << context;
    const SelVector& rows = is_left ? want.left : want.right;
    for (size_t i = 0; i < out.num_rows; ++i) {
      ASSERT_TRUE(SameCell(out.columns[oc], i, side.columns[col], rows[i]))
          << context << ": output row " << i << " column "
          << out.names[oc].ToString();
    }
  }
}

/// Cases(), then RadixCases().
std::vector<JoinCase> AllCases() {
  std::vector<JoinCase> cases = Cases();
  for (JoinCase& c : RadixCases()) cases.push_back(std::move(c));
  return cases;
}

/// NestedLoopPairs of every AllCases() case, computed once: the nested loop
/// dominates these tests' run time.
const std::vector<Pairs>& ExpectedPairs() {
  static const std::vector<Pairs>* const expected = [] {
    auto* out = new std::vector<Pairs>;
    for (const JoinCase& c : AllCases()) out->push_back(NestedLoopPairs(c));
    return out;
  }();
  return *expected;
}

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kMorselRows = 16;  // Many morsels per side.

TEST(JoinOracleTest, ProbePipelineMatchesNestedLoopAtEveryThreadCount) {
  const std::vector<JoinCase> cases = AllCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    const JoinCase& c = cases[i];
    for (int threads : kThreadCounts) {
      for (bool bloom : {false, true}) {
        const std::string context = c.name + " t" + std::to_string(threads) +
                                    (bloom ? " bloom" : "");
        ExecOptions exec;
        exec.num_threads = threads;
        exec.morsel_rows = kMorselRows;
        auto got =
            RunProbePipeline(c.left, c.right, c.predicate(), exec, bloom);
        ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
        ExpectJoinRows(got.ValueOrDie(), c, ExpectedPairs()[i], context);
      }
    }
  }
}

TEST(JoinOracleTest, CasesCoverMatchesAndEdges) {
  // Guards the oracle itself: the cases must produce real matches where
  // expected, and none where the key forms cannot meet; the RadixCases()
  // are large.
  const std::vector<JoinCase> cases = AllCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    const JoinCase& c = cases[i];
    const size_t matches = ExpectedPairs()[i].left.size();
    if (c.name == "empty_build" || c.name == "number_vs_string") {
      EXPECT_EQ(matches, 0u) << c.name;
    } else if (c.name == "repeated_key") {
      EXPECT_EQ(matches, 30000u);
    } else if (c.name == "nan_one_side") {
      EXPECT_EQ(matches, 199u);
    } else {
      EXPECT_GT(matches, 0u) << c.name;
    }
    if (c.name.rfind("radix_", 0) == 0) {
      EXPECT_GE(c.left.num_rows, 2000u) << c.name;
    }
  }
}

/// One grouped aggregation over a batch.
struct AggCase {
  std::string name;
  ColumnBatch in;
  std::vector<ColumnRef> group_by;
  std::vector<AggExpr> aggs;
};

AggExpr Agg(AggFunc func, ColumnRef arg = {}) {
  AggExpr a;
  a.func = func;
  a.arg = std::move(arg);
  return a;
}

/// A batch of columns t.<name>.
ColumnBatch Table(std::vector<std::pair<std::string, ColumnVector>> cols) {
  ColumnBatch batch;
  batch.num_rows = cols.front().second.size();
  for (auto& [name, col] : cols) {
    batch.names.emplace_back("t", name);
    batch.columns.push_back(std::move(col));
  }
  return batch;
}

/// Every aggregate function over the numeric `x`, plus MIN/MAX over the
/// string `s` when there is one.
std::vector<AggExpr> AllAggs(bool with_string) {
  const ColumnRef x("t", "x");
  std::vector<AggExpr> aggs = {Agg(AggFunc::kCount), Agg(AggFunc::kSum, x),
                               Agg(AggFunc::kAvg, x), Agg(AggFunc::kMin, x),
                               Agg(AggFunc::kMax, x), Agg(AggFunc::kCount, x)};
  if (with_string) {
    aggs.push_back(Agg(AggFunc::kMin, ColumnRef("t", "s")));
    aggs.push_back(Agg(AggFunc::kMax, ColumnRef("t", "s")));
  }
  return aggs;
}

/// Arguments are integers, halves or signed zeros, so every sum is exact in
/// any fold order and the engines must agree bit for bit.
std::vector<AggCase> AggCases() {
  std::vector<AggCase> cases;
  const ColumnRef k("t", "k");
  // More groups than 100k: the table doubles many times, and at threads
  // > 1 the merge inserts most groups again. Three aggregates keep the
  // fold cells (and the test's run time) small.
  const ColumnRef x("t", "x");
  cases.push_back(
      {"many_groups",
       Table({{"k", Ints(Scrambled(125000, 400000))},
              {"x", Ints(Scrambled(125000, 1000, -500, 3))}}),
       {k},
       {Agg(AggFunc::kCount), Agg(AggFunc::kSum, x), Agg(AggFunc::kMax, x)}});
  // One key column of each physical form.
  std::vector<double> halves;
  for (int64_t v : Scrambled(6000, 3, 0, 5)) halves.push_back(v / 2.0);
  cases.push_back(
      {"mixed_keys",
       Table({{"i", Ints(Scrambled(6000, 3, 0, 2))},
              {"f", ForInts(Scrambled(6000, 2, 1000000, 3))},
              {"d", Doubles(halves)},
              {"ds", DictStrings(Names("d", Scrambled(6000, 2, 0, 7)))},
              {"rs", RawStrings(Names("r", Scrambled(6000, 3, 0, 11)))},
              {"x", Ints(Scrambled(6000, 100, -50, 13))},
              {"s", DictStrings(Names("v", Scrambled(6000, 40, 0, 17)))}}),
       {ColumnRef("t", "i"), ColumnRef("t", "f"), ColumnRef("t", "d"),
        ColumnRef("t", "ds"), ColumnRef("t", "rs")},
       AllAggs(true)});
  // -0.0 and 0.0 are one group, keyed by whichever came first (-0.0).
  std::vector<int64_t> zero_first = Scrambled(3000, 4, 0, 19);
  zero_first[0] = 0;
  cases.push_back(
      {"signed_zero_keys",
       Table({{"k", Doubles(Pick<double>({-0.0, 0.0, 1.5, -1.5}, zero_first))},
              {"x", Ints(Scrambled(3000, 10, 0, 23))}}),
       {k},
       AllAggs(false)});
  // MIN and MAX over equal values (signed zeros) keep the earliest row's;
  // group 4's 0.25 keeps the result columns double, so the sign survives.
  std::vector<int64_t> groups = Scrambled(4000, 5, 0, 29);
  std::vector<int64_t> zero_pick = Scrambled(4000, 2, 0, 31);
  std::vector<double> zeros;
  for (size_t i = 0; i < groups.size(); ++i) {
    zeros.push_back(groups[i] == 4 ? 0.25 : (zero_pick[i] == 0 ? -0.0 : 0.0));
  }
  cases.push_back({"min_max_ties",
                   Table({{"k", Ints(groups)}, {"x", Doubles(zeros)}}),
                   {k},
                   AllAggs(false)});
  // COUNT(*) and friends over no rows: the scalar identity row, and no
  // rows at all once grouped.
  cases.push_back(
      {"empty_scalar", Table({{"x", Ints({})}}), {}, AllAggs(false)});
  cases.push_back({"empty_grouped", Table({{"k", Ints({})}, {"x", Ints({})}}),
                   {k},
                   AllAggs(false)});
  return cases;
}

/// Cell identity on Values: same string, or the same number down to the
/// sign of zero.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_number() != b.is_number()) return false;
  if (!a.is_number()) return a.str() == b.str();
  return a.number() == b.number() &&
         std::signbit(a.number()) == std::signbit(b.number());
}

/// The row engine's group equality (neither key ValueLess than the other).
struct KeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end(), ValueLess);
  }
};

/// AggregateRows' result for `c`, its groups reordered by first occurrence
/// in the input; a scalar aggregate has its one row even over no input.
NamedRows ExpectedAggRows(const AggCase& c) {
  const NamedRows in = BatchToRows(c.in);
  NamedRows want = AggregateRows(in, c.group_by, c.aggs, {}).ValueOrDie();
  const size_t width = c.group_by.size();
  std::map<std::vector<Value>, size_t, KeyLess> want_row;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    want_row.emplace(std::vector<Value>(want.rows[i].begin(),
                                        want.rows[i].begin() + width),
                     i);
  }
  NamedRows ordered;
  ordered.columns = want.columns;
  if (width == 0) {
    ordered.rows = want.rows;
    return ordered;
  }
  std::vector<int> group_idx;
  for (const auto& g : c.group_by) group_idx.push_back(in.ColumnIndex(g));
  for (const auto& row : in.rows) {
    std::vector<Value> key;
    for (int g : group_idx) key.push_back(row[g]);
    auto it = want_row.find(key);
    if (it == want_row.end()) continue;  // not a first occurrence
    ordered.rows.push_back(std::move(want.rows[it->second]));
    want_row.erase(it);
  }
  return ordered;
}

/// The expected rows of every AggCases() case, computed once: the row
/// engine's std::map grouping dominates these tests' run time.
const std::vector<NamedRows>& ExpectedAggs() {
  static const std::vector<NamedRows>* const expected = [] {
    auto* out = new std::vector<NamedRows>;
    for (const AggCase& c : AggCases()) out->push_back(ExpectedAggRows(c));
    return out;
  }();
  return *expected;
}

/// `got` must hold exactly `want`'s rows in `want`'s order, every cell
/// (keys included) identical down to the sign of zero.
void ExpectAggRows(const ColumnBatch& got, const NamedRows& want,
                   const std::string& context) {
  const NamedRows rows = BatchToRows(got);
  ASSERT_TRUE(rows.columns == want.columns) << context;
  ASSERT_EQ(rows.rows.size(), want.rows.size()) << context;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    for (size_t col = 0; col < want.columns.size(); ++col) {
      ASSERT_TRUE(SameValue(rows.rows[i][col], want.rows[i][col]))
          << context << ": group " << i << " column "
          << want.columns[col].ToString() << " got "
          << rows.rows[i][col].ToString() << " want "
          << want.rows[i][col].ToString();
    }
  }
}

TEST(AggOracleTest, PipelineSinkMatchesRowEngineAtEveryThreadCount) {
  const std::vector<AggCase> cases = AggCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    const AggCase& c = cases[i];
    for (int threads : {1, 2, 4}) {
      const std::string context = c.name + " t" + std::to_string(threads);
      ExecOptions exec;
      exec.num_threads = threads;
      exec.morsel_rows = 512;  // Many morsels, so workers merge real states.
      auto got = RunAggPipeline(c.in, c.group_by, c.aggs, exec);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      ExpectAggRows(got.ValueOrDie(), ExpectedAggs()[i], context);
    }
  }
}

TEST(AggOracleTest, CasesCoverTheirEdges) {
  // Guards the oracle itself.
  const std::vector<AggCase> cases = AggCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    const AggCase& c = cases[i];
    const size_t groups = ExpectedAggs()[i].rows.size();
    if (c.name == "many_groups") {
      EXPECT_GT(groups, 100000u);
      EXPECT_LT(groups, c.in.num_rows) << "no key repeats";
    } else if (c.name == "signed_zero_keys") {
      EXPECT_EQ(groups, 3u);
      EXPECT_TRUE(std::signbit(c.in.columns[0].Number(0)));
    } else if (c.name == "empty_scalar") {
      EXPECT_EQ(groups, 1u);
    } else if (c.name == "empty_grouped") {
      EXPECT_EQ(groups, 0u);
    } else {
      EXPECT_GT(groups, 1u) << c.name;
    }
  }
}

}  // namespace
}  // namespace mqo
