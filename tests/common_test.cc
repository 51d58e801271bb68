// Unit tests for the common substrate: Status/Result, ElementSet, hashing,
// RNG determinism, string utilities.

#include <gtest/gtest.h>

#include "common/element_set.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mqo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: no such table");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ElementSetTest, AddRemoveContains) {
  ElementSet s(100);
  EXPECT_TRUE(s.Empty());
  s.Add(3);
  s.Add(64);
  s.Add(99);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(99));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Size(), 3);
  s.Remove(64);
  EXPECT_FALSE(s.Contains(64));
  EXPECT_EQ(s.Size(), 2);
}

TEST(ElementSetTest, FullUniverse) {
  ElementSet s = ElementSet::Full(70);
  EXPECT_EQ(s.Size(), 70);
  for (int i = 0; i < 70; ++i) EXPECT_TRUE(s.Contains(i));
}

TEST(ElementSetTest, WithWithoutAreCopies) {
  ElementSet s(10, {1, 2});
  ElementSet t = s.With(5);
  EXPECT_FALSE(s.Contains(5));
  EXPECT_TRUE(t.Contains(5));
  ElementSet u = t.Without(1);
  EXPECT_TRUE(t.Contains(1));
  EXPECT_FALSE(u.Contains(1));
}

TEST(ElementSetTest, SetAlgebra) {
  ElementSet a(10, {1, 2, 3});
  ElementSet b(10, {3, 4});
  EXPECT_EQ(a.Union(b).Size(), 4);
  EXPECT_EQ(a.Intersect(b).Size(), 1);
  EXPECT_TRUE(a.Intersect(b).Contains(3));
  EXPECT_EQ(a.Difference(b).Size(), 2);
  EXPECT_TRUE(ElementSet(10, {1, 3}).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(ElementSetTest, ToVectorSortedAscending) {
  ElementSet s(130, {128, 0, 65});
  EXPECT_EQ(s.ToVector(), (std::vector<int>{0, 65, 128}));
  EXPECT_EQ(s.ToString(), "{0, 65, 128}");
}

TEST(ElementSetTest, HashAndEquality) {
  ElementSet a(50, {7, 13});
  ElementSet b(50, {13, 7});
  ElementSet c(50, {7, 14});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
}

TEST(ElementSetTest, OnlyDifferenceFindsASingleToggleInAnyWord) {
  const ElementSet base(130, {3, 64, 127});
  EXPECT_EQ(base.OnlyDifference(base), -1);
  // One element added or removed, in the first, middle and last word.
  EXPECT_EQ(base.Without(3).OnlyDifference(base), 3);
  EXPECT_EQ(base.OnlyDifference(base.Without(64)), 64);
  EXPECT_EQ(base.With(129).OnlyDifference(base), 129);
  // Two differences, in one word or in two.
  EXPECT_EQ(base.With(5).With(6).OnlyDifference(base), -1);
  EXPECT_EQ(base.With(5).With(70).OnlyDifference(base), -1);
  EXPECT_EQ(base.With(0).Without(127).OnlyDifference(base), -1);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.NextIntIn(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2), HashCombine(HashCombine(0, 2), 1));
}

TEST(StringUtilTest, JoinAndPad) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(PadLeft("x", 3), "  x");
  EXPECT_EQ(PadRight("x", 3), "x  ");
  EXPECT_EQ(PadLeft("xyzw", 3), "xyzw");
}

TEST(StringUtilTest, FormatCost) {
  EXPECT_EQ(FormatCost(0.0), "0.000");
  EXPECT_EQ(FormatCost(12.5), "12.500");
  EXPECT_EQ(FormatCost(123456.0), "123456.0");
  EXPECT_EQ(FormatCost(1.25e9), "1.250e+09");
}

TEST(StringUtilTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("select *", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
  EXPECT_EQ(ToLower("SeLeCt"), "select");
}

}  // namespace
}  // namespace mqo
