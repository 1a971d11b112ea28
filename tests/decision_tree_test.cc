#include "ml/decision_tree.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace gdr {
namespace {

FeatureSchema MixedSchema() {
  return FeatureSchema({{"color", FeatureType::kCategorical},
                        {"size", FeatureType::kNumeric}});
}

TEST(CountsEntropyTest, KnownValues) {
  EXPECT_DOUBLE_EQ(CountsEntropy({}), 0.0);
  EXPECT_DOUBLE_EQ(CountsEntropy({5, 0}), 0.0);
  EXPECT_NEAR(CountsEntropy({1, 1}), std::log(2.0), 1e-12);
  EXPECT_NEAR(CountsEntropy({1, 1, 1, 1}), std::log(4.0), 1e-12);
}

TEST(DecisionTreeTest, RejectsEmptyTraining) {
  TrainingSet set(MixedSchema(), 2);
  DecisionTree tree;
  EXPECT_FALSE(tree.Train(set, {}, {}, nullptr).ok());
}

TEST(DecisionTreeTest, PureClassBecomesSingleLeaf) {
  TrainingSet set(MixedSchema(), 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(set.Add({{0.0, static_cast<double>(i)}, 1}).ok());
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.Predict({0.0, 3.0}), 1);
}

TEST(DecisionTreeTest, SplitsOnNumericThreshold) {
  TrainingSet set(MixedSchema(), 2);
  for (int i = 0; i < 20; ++i) {
    const double size = static_cast<double>(i);
    ASSERT_TRUE(set.Add({{0.0, size}, size < 10 ? 0 : 1}).ok());
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
  EXPECT_EQ(tree.Predict({0.0, 2.0}), 0);
  EXPECT_EQ(tree.Predict({0.0, 15.0}), 1);
}

TEST(DecisionTreeTest, SplitsOnCategoricalEquality) {
  TrainingSet set(MixedSchema(), 2);
  // color id 7 -> class 1, everything else -> class 0, size is noise.
  for (int i = 0; i < 30; ++i) {
    const double color = static_cast<double>(i % 3 == 0 ? 7 : i % 5);
    ASSERT_TRUE(
        set.Add({{color, static_cast<double>(i)}, color == 7.0 ? 1 : 0})
            .ok());
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
  EXPECT_EQ(tree.Predict({7.0, 100.0}), 1);
  EXPECT_EQ(tree.Predict({2.0, 100.0}), 0);
}

TEST(DecisionTreeTest, LearnsConjunctionRequiringTwoLevels) {
  // class = (a == 1) AND (b == 1): needs a two-level tree, and unlike XOR
  // every greedy split has positive information gain.
  FeatureSchema schema({{"a", FeatureType::kCategorical},
                        {"b", FeatureType::kCategorical}});
  TrainingSet set(schema, 2);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int rep = 0; rep < 5; ++rep) {
        ASSERT_TRUE(set.Add({{static_cast<double>(a),
                              static_cast<double>(b)},
                             (a == 1 && b == 1) ? 1 : 0})
                        .ok());
      }
    }
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
  EXPECT_EQ(tree.Predict({0.0, 0.0}), 0);
  EXPECT_EQ(tree.Predict({0.0, 1.0}), 0);
  EXPECT_EQ(tree.Predict({1.0, 0.0}), 0);
  EXPECT_EQ(tree.Predict({1.0, 1.0}), 1);
  EXPECT_GE(tree.node_count(), 3u);
}

TEST(DecisionTreeTest, MaxDepthZeroYieldsMajorityLeaf) {
  TrainingSet set(MixedSchema(), 2);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(set.Add({{0.0, static_cast<double>(i)}, i < 6 ? 0 : 1}).ok());
  }
  DecisionTreeOptions options;
  options.max_depth = 0;
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, options, nullptr).ok());
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.Predict({0.0, 8.0}), 0);  // majority class
}

TEST(DecisionTreeTest, DuplicateIndicesActAsWeights) {
  TrainingSet set(MixedSchema(), 2);
  ASSERT_TRUE(set.Add({{0.0, 0.0}, 0}).ok());
  ASSERT_TRUE(set.Add({{0.0, 0.0}, 1}).ok());
  // Weight example 1 heavily via duplication (a bootstrap bag).
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {0, 1, 1, 1, 1}, {}, nullptr).ok());
  EXPECT_EQ(tree.Predict({0.0, 0.0}), 1);
}

// An index past the training set is rejected before the tree is touched.
TEST(DecisionTreeTest, RejectsIndexPastTrainingSet) {
  TrainingSet set(MixedSchema(), 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(set.Add({{static_cast<double>(i % 3), static_cast<double>(i)},
                         i < 5 ? 0 : 1})
                    .ok());
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
  const std::vector<std::int32_t> features(tree.node_features().begin(),
                                           tree.node_features().end());
  const std::vector<double> thresholds(tree.node_thresholds().begin(),
                                       tree.node_thresholds().end());
  ASSERT_GT(features.size(), 1u);

  EXPECT_EQ(tree.Train(set, {0, 1, 10}, {}, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.Train(set, {0, static_cast<std::size_t>(-1)}, {}, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(std::vector<std::int32_t>(tree.node_features().begin(),
                                      tree.node_features().end()),
            features);
  EXPECT_EQ(std::vector<double>(tree.node_thresholds().begin(),
                                tree.node_thresholds().end()),
            thresholds);
  EXPECT_EQ(tree.num_classes(), 2);
}

TEST(DecisionTreeTest, FeatureSubsampleRequiresRng) {
  TrainingSet set(MixedSchema(), 2);
  ASSERT_TRUE(set.Add({{0.0, 0.0}, 0}).ok());
  DecisionTreeOptions options;
  options.feature_subsample = 1;
  DecisionTree tree;
  EXPECT_FALSE(tree.Train(set, options, nullptr).ok());
}

TEST(DecisionTreeTest, DeterministicGivenSeed) {
  TrainingSet set(MixedSchema(), 2);
  Rng data_rng(5);
  for (int i = 0; i < 50; ++i) {
    const double color = static_cast<double>(data_rng.NextBounded(4));
    const double size = data_rng.NextDouble() * 10;
    ASSERT_TRUE(set.Add({{color, size}, size > 5 ? 1 : 0}).ok());
  }
  DecisionTreeOptions options;
  options.feature_subsample = 1;
  Rng rng1(42);
  Rng rng2(42);
  DecisionTree t1;
  DecisionTree t2;
  ASSERT_TRUE(t1.Train(set, options, &rng1).ok());
  ASSERT_TRUE(t2.Train(set, options, &rng2).ok());
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x = {static_cast<double>(i % 4),
                                   static_cast<double>(i) / 2.0};
    EXPECT_EQ(t1.Predict(x), t2.Predict(x));
  }
}

}  // namespace
}  // namespace gdr
