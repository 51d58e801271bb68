// Tests for the submodular library: instance properties (validated
// exhaustively on small universes), the Proposition 1/2 decompositions, the
// MarginalGreedy family, Theorem 4 universe reduction, and the Theorem 1
// bound — including parameterized property sweeps over random seeds.

#include <gtest/gtest.h>

#include <cmath>

#include "submodular/algorithms.h"
#include "submodular/decomposition.h"
#include "submodular/instances.h"
#include "submodular/validators.h"

namespace mqo {
namespace {

// ---------------------------------------------------------------- instances

class InstancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InstancePropertyTest, CoverageIsMonotoneSubmodularNormalized) {
  Rng rng(GetParam());
  CoverageFunction f = MakePlantedCoverInstance(20, 3, 5, &rng);
  ASSERT_LE(f.universe_size(), 10);
  EXPECT_TRUE(IsNormalized(f));
  EXPECT_TRUE(IsMonotone(f));
  EXPECT_TRUE(IsSubmodular(f));
}

TEST_P(InstancePropertyTest, ProfittedMaxCoverageIsNormalizedSubmodularNonMonotone) {
  Rng rng(GetParam());
  CoverageFunction cover = MakePlantedCoverInstance(20, 3, 5, &rng);
  ProfittedMaxCoverage f(cover, 3, 2.0);
  EXPECT_TRUE(IsNormalized(f));
  EXPECT_TRUE(IsSubmodular(f));
  EXPECT_FALSE(IsMonotone(f));  // the cost term makes big sets unattractive
}

TEST_P(InstancePropertyTest, CutIsNormalizedSubmodularNonMonotone) {
  Rng rng(GetParam());
  CutFunction f = CutFunction::Random(9, 0.5, &rng);
  EXPECT_TRUE(IsNormalized(f));
  EXPECT_TRUE(IsSubmodular(f));
  // Symmetric: f(S) == f(U \ S).
  ElementSet s(9, {0, 3, 5});
  EXPECT_NEAR(f.Value(s), f.Value(ElementSet::Full(9).Difference(s)), 1e-12);
}

TEST_P(InstancePropertyTest, FacilityLocationIsNormalizedSubmodular) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(8, 20, 3.0, &rng);
  EXPECT_TRUE(IsNormalized(f));
  EXPECT_TRUE(IsSubmodular(f));
}

TEST_P(InstancePropertyTest, ModularIsBothSubAndSupermodular) {
  Rng rng(GetParam());
  std::vector<double> w(8);
  for (auto& x : w) x = rng.NextDoubleIn(-2, 2);
  ModularFunction f(w);
  EXPECT_TRUE(IsSubmodular(f));
  EXPECT_TRUE(IsSupermodular(f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstancePropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(InstanceTest, PlantedCoverActuallyCovers) {
  Rng rng(5);
  const int l = 4;
  CoverageFunction f = MakePlantedCoverInstance(40, l, 10, &rng);
  // The first l universe elements are the planted partition.
  ElementSet planted(f.universe_size());
  for (int i = 0; i < l; ++i) planted.Add(i);
  EXPECT_DOUBLE_EQ(f.Value(planted), 40.0);
  EXPECT_DOUBLE_EQ(f.Value(ElementSet::Full(f.universe_size())), 40.0);
}

TEST(InstanceTest, ProfittedOptimumIsOneOnPlantedCover) {
  Rng rng(5);
  const int l = 4;
  CoverageFunction cover = MakePlantedCoverInstance(40, l, 6, &rng);
  ProfittedMaxCoverage f(cover, l, 2.0);
  ElementSet planted(f.universe_size());
  for (int i = 0; i < l; ++i) planted.Add(i);
  // f(G) = (γ+1)/γ − 1/γ = 1 (completeness case of Theorem 2).
  EXPECT_NEAR(f.Value(planted), 1.0, 1e-12);
}

TEST(InstanceTest, CountingWrapperCachesAndCounts) {
  Rng rng(3);
  CutFunction inner = CutFunction::Random(8, 0.5, &rng);
  CountingSetFunction f(&inner);
  ElementSet s(8, {1, 2});
  const double v1 = f.Value(s);
  const double v2 = f.Value(s);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(f.num_evals(), 1);  // second call served from cache
  f.Value(s.With(5));
  EXPECT_EQ(f.num_evals(), 2);
}

// ------------------------------------------------------------ decomposition

class DecompositionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecompositionTest, CanonicalIsValidAndMonotone) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(7, 15, 3.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  // f(S) = fM(S) − c(S) holds by construction; fM must be monotone (Prop 1).
  EXPECT_TRUE(DecompositionMonotone(f, d));
}

TEST_P(DecompositionTest, CanonicalIsFixpointOfImprovement) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(7, 15, 3.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  Decomposition improved = ImproveDecomposition(f, d);
  for (int e = 0; e < f.universe_size(); ++e) {
    EXPECT_NEAR(improved.costs[e], d.costs[e], 1e-9);
  }
}

TEST_P(DecompositionTest, ImprovementMapsShiftedBackToCanonical) {
  Rng rng(GetParam());
  CutFunction f = CutFunction::Random(8, 0.5, &rng);
  Decomposition canonical = CanonicalDecomposition(f);
  Decomposition shifted = canonical;
  for (double& c : shifted.costs) c += 3.5;  // positive linear shift
  EXPECT_TRUE(DecompositionMonotone(f, shifted));
  Decomposition improved = ImproveDecomposition(f, shifted);
  for (int e = 0; e < f.universe_size(); ++e) {
    EXPECT_NEAR(improved.costs[e], canonical.costs[e], 1e-9);
  }
}

TEST_P(DecompositionTest, CanonicalCostFormula) {
  Rng rng(GetParam());
  CutFunction f = CutFunction::Random(8, 0.5, &rng);
  Decomposition d = CanonicalDecomposition(f);
  const ElementSet full = ElementSet::Full(8);
  for (int e = 0; e < 8; ++e) {
    EXPECT_NEAR(d.costs[e], f.Value(full.Without(e)) - f.Value(full), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionTest,
                         ::testing::Values(4, 8, 15, 16, 23, 42));

// --------------------------------------------------------------- algorithms

class AlgorithmTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgorithmTest, MarginalGreedyNeverReturnsNegative) {
  // f(∅) = 0, every accepted pick has positive marginal: f(X) >= 0 always.
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(10, 25, 5.0, &rng);
  GreedyResult r = MarginalGreedy(f, CanonicalDecomposition(f));
  EXPECT_GE(r.value, -1e-9);
}

TEST_P(AlgorithmTest, Theorem1BoundHolds) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(9, 20, 4.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  for (double& c : d.costs) c = std::max(c, 1e-9);  // Prop 1 positive scaling
  GreedyResult greedy = MarginalGreedy(f, d);
  GreedyResult opt = ExhaustiveMax(f);
  if (opt.value <= 0) return;
  const double bound = Theorem1Bound(opt.value, d.CostOf(opt.selected));
  EXPECT_GE(greedy.value, bound - 1e-9);
}

TEST_P(AlgorithmTest, LazyMatchesEagerWithFewerEvals) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(12, 30, 4.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  MarginalGreedyOptions eager;
  eager.lazy = false;
  MarginalGreedyOptions lazy;
  lazy.lazy = true;
  GreedyResult a = MarginalGreedy(f, d, eager);
  GreedyResult b = MarginalGreedy(f, d, lazy);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_LE(b.function_evals, a.function_evals);
}

TEST_P(AlgorithmTest, PruningDoesNotChangeOutput) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(12, 30, 4.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  MarginalGreedyOptions no_prune;
  no_prune.prune_ratio_below_one = false;
  GreedyResult a = MarginalGreedy(f, d);
  GreedyResult b = MarginalGreedy(f, d, no_prune);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_LE(a.function_evals, b.function_evals);
}

TEST_P(AlgorithmTest, Theorem4ReductionPreservesOutput) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(14, 30, 4.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  for (int k : {2, 5, 14}) {
    MarginalGreedyOptions plain;
    plain.cardinality_limit = k;
    MarginalGreedyOptions reduced = plain;
    reduced.universe_reduction = true;
    GreedyResult a = MarginalGreedy(f, d, plain);
    GreedyResult b = MarginalGreedy(f, d, reduced);
    EXPECT_EQ(a.selected, b.selected) << "k=" << k;
  }
}

TEST_P(AlgorithmTest, CardinalityLimitRespected) {
  Rng rng(GetParam());
  FacilityLocationFunction f = FacilityLocationFunction::Random(12, 30, 1.0, &rng);
  Decomposition d = CanonicalDecomposition(f);
  for (int k : {0, 1, 3}) {
    MarginalGreedyOptions opts;
    opts.cardinality_limit = k;
    GreedyResult r = MarginalGreedy(f, d, opts);
    EXPECT_LE(r.selected.Size(), k);
  }
}

TEST_P(AlgorithmTest, CostGreedyMinLazyMatchesEagerOnSupermodularCost) {
  // A supermodular cost (negated coverage plus modular) is the regime Roy et
  // al.'s lazy heap assumes; outputs must match the eager scan.
  Rng rng(GetParam());
  CoverageFunction cover = MakePlantedCoverInstance(30, 5, 7, &rng);
  std::vector<double> w(cover.universe_size());
  for (auto& x : w) x = rng.NextDoubleIn(0.5, 1.5);
  ModularFunction mod(w);
  LambdaSetFunction g(cover.universe_size(), [&](const ElementSet& s) {
    return 30.0 - cover.Value(s) + mod.Value(s);  // supermodular + modular
  });
  CostGreedyResult a = CostGreedyMin(g, /*lazy=*/false);
  CostGreedyResult b = CostGreedyMin(g, /*lazy=*/true);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_LE(b.function_evals, a.function_evals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmTest,
                         ::testing::Values(7, 21, 33, 54, 77, 101));

TEST(AlgorithmTest, ExhaustiveFindsKnownOptimum) {
  // Hand-built: two disjoint valuable sets and one costly decoy.
  // f(S) = 5|cover(S)| − cost(S).
  CoverageFunction cover(4, {{0, 1}, {2, 3}, {0, 1, 2, 3}});
  ModularFunction cost({1.0, 1.0, 100.0});
  LambdaSetFunction f(3, [&](const ElementSet& s) {
    return 5.0 * cover.Value(s) - cost.Value(s);
  });
  GreedyResult r = ExhaustiveMax(f);
  EXPECT_EQ(r.selected, ElementSet(3, {0, 1}));
  EXPECT_DOUBLE_EQ(r.value, 18.0);
}

TEST(AlgorithmTest, DoubleGreedyHalfApproxOnNonNegativeCut) {
  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    CutFunction f = CutFunction::Random(10, 0.5, &rng);
    GreedyResult dg = DoubleGreedy(f);
    GreedyResult opt = ExhaustiveMax(f);
    // Deterministic double greedy guarantees 1/3 on non-negative functions.
    EXPECT_GE(dg.value, opt.value / 3.0 - 1e-9);
  }
}

TEST(AlgorithmTest, RandomizedDoubleGreedyExpectedHalfOnCuts) {
  // The randomized variant guarantees E[f] >= opt/2 on non-negative
  // functions; check the empirical mean over repeated seeds clears a
  // comfortably looser threshold.
  Rng inst_rng(55);
  CutFunction f = CutFunction::Random(10, 0.5, &inst_rng);
  GreedyResult opt = ExhaustiveMax(f);
  double total = 0;
  const int runs = 50;
  for (int i = 0; i < runs; ++i) {
    Rng rng(1000 + i);
    total += RandomizedDoubleGreedy(f, &rng).value;
  }
  EXPECT_GE(total / runs, 0.45 * opt.value);
}

TEST(AlgorithmTest, RandomizedDoubleGreedyDeterministicPerSeed) {
  Rng inst_rng(56);
  CutFunction f = CutFunction::Random(9, 0.5, &inst_rng);
  Rng a(7), b(7);
  GreedyResult ra = RandomizedDoubleGreedy(f, &a);
  GreedyResult rb = RandomizedDoubleGreedy(f, &b);
  EXPECT_EQ(ra.selected, rb.selected);
}

TEST(AlgorithmTest, Theorem1BoundFormula) {
  // gamma = 1: 1 - ln(2) ≈ 0.3069.
  EXPECT_NEAR(Theorem1Bound(1.0, 1.0), 1.0 - std::log(2.0), 1e-12);
  // gamma -> large: bound approaches f_opt.
  EXPECT_GT(Theorem1Bound(1.0, 0.01), 0.95);
  // Degenerate cases.
  EXPECT_EQ(Theorem1Bound(1.0, 0.0), 1.0);
  EXPECT_EQ(Theorem1Bound(-1.0, 1.0), -std::numeric_limits<double>::infinity());
}

TEST(AlgorithmTest, MarginalGreedyOnPureModularPicksAllPositive) {
  ModularFunction f({3.0, -2.0, 0.5, -0.1, 4.0});
  Decomposition d = CanonicalDecomposition(f);
  GreedyResult r = MarginalGreedy(f, d);
  EXPECT_EQ(r.selected, ElementSet(5, {0, 2, 4}));
  EXPECT_DOUBLE_EQ(r.value, 7.5);
}

}  // namespace
}  // namespace mqo
