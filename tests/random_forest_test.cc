#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "testing/forest_oracle.h"

namespace gdr {
namespace {

using forest_testing::OracleMajorityClass;
using forest_testing::OracleVoteEntropy;
using forest_testing::OracleVoteFractions;

int Predict(const RandomForest& forest, const std::vector<double>& x) {
  return OracleMajorityClass(OracleVoteFractions(forest, x));
}

double Uncertainty(const RandomForest& forest, const std::vector<double>& x) {
  return OracleVoteEntropy(OracleVoteFractions(forest, x));
}

// The production entropy over a literal vote-fraction vector.
double Entropy(const std::vector<double>& fractions) {
  return RandomForest::VoteEntropy(fractions);
}

FeatureSchema MixedSchema() {
  return FeatureSchema({{"color", FeatureType::kCategorical},
                        {"size", FeatureType::kNumeric}});
}

TrainingSet SeparableSet(int n, std::uint64_t seed) {
  TrainingSet set(MixedSchema(), 2);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double color = static_cast<double>(rng.NextBounded(5));
    const double size = rng.NextDouble() * 10.0;
    EXPECT_TRUE(set.Add({{color, size}, size > 5.0 ? 1 : 0}).ok());
  }
  return set;
}

TEST(RandomForestTest, RejectsEmptyTraining) {
  TrainingSet set(MixedSchema(), 2);
  RandomForest forest;
  EXPECT_FALSE(forest.Train(set).ok());
}

// A training set whose examples have no features: every tree fails.
TrainingSet ZeroWidthSet() {
  TrainingSet set(FeatureSchema{}, 3);
  EXPECT_TRUE(set.Add({{}, 0}).ok());
  return set;
}

TEST(RandomForestTest, FailedTrainLeavesForestUntrained) {
  RandomForest forest;
  EXPECT_EQ(forest.Train(ZeroWidthSet()).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(forest.trained());
  EXPECT_EQ(forest.num_trees(), 0);
  // No committee: nothing is walked and no class is voted for.
  std::vector<double> fractions = {1.0};
  forest.VoteFractionsBatch(nullptr, 1, 0, &fractions);
  EXPECT_TRUE(fractions.empty());
}

TEST(RandomForestTest, FailedRetrainKeepsPreviousCommittee) {
  RandomForest forest;
  ASSERT_TRUE(forest.Train(SeparableSet(100, 5)).ok());
  const std::vector<double> before = OracleVoteFractions(forest, {2.0, 6.5});
  EXPECT_FALSE(forest.Train(ZeroWidthSet()).ok());
  EXPECT_TRUE(forest.trained());
  EXPECT_EQ(forest.num_trees(), 10);
  EXPECT_EQ(forest.num_classes(), 2);
  EXPECT_EQ(OracleVoteFractions(forest, {2.0, 6.5}), before);
}

// Options no committee can be trained with are rejected before the
// committee is touched: the forest stays untrained.
TEST(RandomForestTest, RejectsInvalidOptions) {
  const TrainingSet set = SeparableSet(50, 9);
  std::vector<RandomForestOptions> invalid;
  for (int trees : {0, -1}) {
    RandomForestOptions options;
    options.num_trees = trees;
    invalid.push_back(options);
  }
  for (double fraction :
       {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e300}) {
    RandomForestOptions options;
    options.bootstrap_fraction = fraction;
    invalid.push_back(options);
  }
  for (const RandomForestOptions& options : invalid) {
    SCOPED_TRACE("num_trees " + std::to_string(options.num_trees) +
                 ", bootstrap_fraction " +
                 std::to_string(options.bootstrap_fraction));
    RandomForest forest(options);
    EXPECT_EQ(forest.Train(set).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(forest.trained());
    EXPECT_EQ(forest.num_trees(), 0);
  }
}

TEST(RandomForestTest, TrainsTenTreesByDefault) {
  TrainingSet set = SeparableSet(100, 1);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(set).ok());
  EXPECT_EQ(forest.num_trees(), 10);
  EXPECT_TRUE(forest.trained());
}

TEST(RandomForestTest, LearnsSeparableConcept) {
  TrainingSet set = SeparableSet(400, 2);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(set).ok());
  int correct = 0;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double color = static_cast<double>(rng.NextBounded(5));
    const double size = rng.NextDouble() * 10.0;
    const int truth = size > 5.0 ? 1 : 0;
    correct += Predict(forest, {color, size}) == truth ? 1 : 0;
  }
  EXPECT_GE(correct, 180);  // >= 90%
}

TEST(RandomForestTest, VoteFractionsSumToOne) {
  TrainingSet set = SeparableSet(100, 4);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(set).ok());
  const std::vector<double> x = {1.0, 7.0};
  std::vector<double> fractions;
  forest.VoteFractionsBatch(x.data(), 1, x.size(), &fractions);
  ASSERT_EQ(fractions.size(), 2u);
  EXPECT_NEAR(fractions[0] + fractions[1], 1.0, 1e-12);
}

TEST(RandomForestTest, PaperSection42UncertaintyExamples) {
  // Committee of 5: votes {confirm x3, reject x1, retain x1} -> 0.86,
  // votes {confirm x1, reject x4} -> 0.45 (entropy with log base 3).
  EXPECT_NEAR(Entropy({3.0 / 5.0, 1.0 / 5.0, 1.0 / 5.0}), 0.86, 0.005);
  EXPECT_NEAR(Entropy({1.0 / 5.0, 4.0 / 5.0, 0.0}), 0.455, 0.005);
}

TEST(RandomForestTest, VoteEntropyRange) {
  EXPECT_DOUBLE_EQ(Entropy({1.0, 0.0, 0.0}), 0.0);
  EXPECT_NEAR(Entropy({1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({1.0}), 0.0);
}

TEST(RandomForestTest, UncertaintyLowOnConfidentRegion) {
  TrainingSet set = SeparableSet(400, 6);
  RandomForest forest;
  ASSERT_TRUE(forest.Train(set).ok());
  // Deep inside class 1 territory the committee should agree.
  EXPECT_LT(Uncertainty(forest, {1.0, 9.5}), 0.5);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  TrainingSet set = SeparableSet(200, 7);
  RandomForestOptions options;
  options.seed = 99;
  RandomForest a(options);
  RandomForest b(options);
  ASSERT_TRUE(a.Train(set).ok());
  ASSERT_TRUE(b.Train(set).ok());
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {static_cast<double>(i % 5),
                                   static_cast<double>(i % 10)};
    EXPECT_EQ(Predict(a, x), Predict(b, x));
    EXPECT_DOUBLE_EQ(Uncertainty(a, x), Uncertainty(b, x));
  }
}

TEST(RandomForestTest, DifferentSeedsGrowDifferentForests) {
  TrainingSet set = SeparableSet(200, 8);
  RandomForestOptions oa;
  oa.seed = 1;
  RandomForestOptions ob;
  ob.seed = 2;
  RandomForest a(oa);
  RandomForest b(ob);
  ASSERT_TRUE(a.Train(set).ok());
  ASSERT_TRUE(b.Train(set).ok());
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {static_cast<double>(i % 5),
                                   4.0 + (i % 20) * 0.1};
    if (Uncertainty(a, x) != Uncertainty(b, x)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

class ForestSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ForestSizeTest, AccuracyHoldsAcrossCommitteeSizes) {
  TrainingSet set = SeparableSet(300, 11);
  RandomForestOptions options;
  options.num_trees = GetParam();
  RandomForest forest(options);
  ASSERT_TRUE(forest.Train(set).ok());
  EXPECT_EQ(forest.num_trees(), GetParam());
  int correct = 0;
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const double size = rng.NextDouble() * 10.0;
    correct += Predict(forest, {0.0, size}) == (size > 5.0 ? 1 : 0) ? 1 : 0;
  }
  EXPECT_GE(correct, 85);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeTest,
                         ::testing::Values(1, 5, 10, 20));

}  // namespace
}  // namespace gdr
