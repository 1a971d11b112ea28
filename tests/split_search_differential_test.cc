// Differential suite for the counting split search: every tree and forest
// trained through the TrainingSet's dense value codes must equal, bit for
// bit, the tree the reference map/sort builder (testing/split_oracle.h)
// grows from the raw feature doubles — node arrays, thresholds, leaf
// majorities (the first-max tie-break), and the Rng state left behind.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/example.h"
#include "ml/random_forest.h"
#include "testing/split_oracle.h"
#include "util/rng.h"

namespace gdr {
namespace {

using split_testing::OracleTrainForest;
using split_testing::OracleTrainTree;
using split_testing::OracleTree;

template <typename T>
std::vector<T> ToVector(std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

// The production tree's arrays in the oracle's layout.
OracleTree Arrays(const DecisionTree& tree) {
  return {ToVector(tree.node_features()),
          ToVector(tree.node_categorical()),
          ToVector(tree.node_thresholds()),
          ToVector(tree.node_left()),
          ToVector(tree.node_right()),
          ToVector(tree.node_majority())};
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

void ExpectSameTree(const OracleTree& a, const OracleTree& b) {
  EXPECT_EQ(a.feature, b.feature);
  EXPECT_EQ(a.categorical, b.categorical);
  EXPECT_EQ(Bits(a.threshold), Bits(b.threshold));
  EXPECT_EQ(a.left, b.left);
  EXPECT_EQ(a.right, b.right);
  EXPECT_EQ(a.majority, b.majority);
}

// Equal states produce equal streams; copies, so the callers' generators
// are not advanced.
void ExpectSameRngState(Rng a, Rng b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// A random training-set shape. `distinct` values per feature: 1 or 2 give
// heavy ties, 50 nearly distinct values. `adjacent` draws numeric values
// from pairs of adjacent doubles, so threshold midpoints round onto one of
// the two values.
struct SetShape {
  std::size_t num_features = 1;
  int num_classes = 2;
  std::size_t num_examples = 1;
  std::size_t distinct = 1;
  bool adjacent = false;
};

SetShape RandomShape(Rng* rng) {
  static constexpr std::size_t kDistinct[] = {1, 2, 3, 8, 50};
  SetShape shape;
  shape.num_features = 1 + rng->NextBounded(8);
  shape.num_classes = 2 + static_cast<int>(rng->NextBounded(2));
  shape.num_examples = 1 + rng->NextBounded(200);
  shape.distinct = kDistinct[rng->NextBounded(5)];
  shape.adjacent = rng->NextBounded(3) == 0;
  return shape;
}

// Numeric pool: signed reals, or adjacent-double pairs around them.
std::vector<double> NumericPool(Rng* rng, const SetShape& shape) {
  std::vector<double> pool;
  for (std::size_t v = 0; v < shape.distinct; ++v) {
    const double base = rng->NextDouble() * 20.0 - 10.0;
    pool.push_back(base);
    if (shape.adjacent) pool.push_back(std::nextafter(base, 100.0));
  }
  return pool;
}

std::vector<Example> RandomExamples(Rng* rng, const SetShape& shape,
                                    std::vector<FeatureDesc>* descs) {
  std::vector<std::vector<double>> pools;
  for (std::size_t f = 0; f < shape.num_features; ++f) {
    const bool categorical = rng->NextBounded(2) == 0;
    descs->push_back({"f" + std::to_string(f),
                      categorical ? FeatureType::kCategorical
                                  : FeatureType::kNumeric});
    if (categorical) {
      // Interned-id-like values, not in first-appearance order.
      std::vector<double> ids;
      for (std::size_t v = 0; v < shape.distinct; ++v) {
        ids.push_back(static_cast<double>(rng->NextBounded(1000)));
      }
      pools.push_back(ids);
    } else {
      pools.push_back(NumericPool(rng, shape));
    }
  }
  std::vector<Example> examples;
  for (std::size_t i = 0; i < shape.num_examples; ++i) {
    Example example;
    std::size_t signal = 0;
    for (std::size_t f = 0; f < shape.num_features; ++f) {
      const std::size_t pick = rng->NextBounded(pools[f].size());
      example.features.push_back(pools[f][pick]);
      if (f < 2) signal += pick;
    }
    // Learnable from the first two features, with label noise so equal
    // feature vectors can disagree.
    const std::size_t noise = rng->NextBounded(4) == 0 ? rng->NextBounded(3) : 0;
    example.label = static_cast<int>((signal + noise) %
                                     static_cast<std::size_t>(shape.num_classes));
    examples.push_back(std::move(example));
  }
  return examples;
}

TrainingSet RandomSet(Rng* rng, const SetShape& shape) {
  std::vector<FeatureDesc> descs;
  std::vector<Example> examples = RandomExamples(rng, shape, &descs);
  TrainingSet set(FeatureSchema(descs), shape.num_classes);
  for (Example& e : examples) EXPECT_TRUE(set.Add(std::move(e)).ok());
  return set;
}

DecisionTreeOptions RandomTreeOptions(Rng* rng, std::size_t num_features) {
  static constexpr int kDepths[] = {0, 1, 3, 24, 1 << 20};
  static constexpr int kMinSplits[] = {1, 2, 5, 20};
  DecisionTreeOptions options;
  options.max_depth = kDepths[rng->NextBounded(5)];
  options.min_samples_split = kMinSplits[rng->NextBounded(4)];
  options.feature_subsample =
      rng->NextBounded(2) == 0
          ? 0
          : 1 + static_cast<int>(rng->NextBounded(num_features));
  return options;
}

class SplitSearchDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitSearchDifferentialTest, TreeMatchesOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7349 + 1);
  const SetShape shape = RandomShape(&rng);
  const TrainingSet set = RandomSet(&rng, shape);
  const DecisionTreeOptions options =
      RandomTreeOptions(&rng, shape.num_features);

  // Half the cases train on a bootstrap bag (duplicate indices).
  std::vector<std::size_t> indices(set.size());
  if (rng.NextBounded(2) == 0) {
    for (std::size_t& i : indices) i = rng.NextBounded(set.size());
  } else {
    std::iota(indices.begin(), indices.end(), 0);
  }

  const std::uint64_t tree_seed = rng.Next();
  Rng production_rng(tree_seed);
  Rng oracle_rng(tree_seed);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, indices, options, &production_rng).ok());
  const OracleTree oracle = OracleTrainTree(set, indices, options, &oracle_rng);
  ExpectSameTree(Arrays(tree), oracle);
  ExpectSameRngState(production_rng, oracle_rng);
  EXPECT_EQ(tree.num_classes(), shape.num_classes);
}

TEST_P(SplitSearchDifferentialTest, ForestMatchesOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104723 + 5);
  const SetShape shape = RandomShape(&rng);
  const TrainingSet set = RandomSet(&rng, shape);

  RandomForestOptions options;
  options.num_trees = 1 + static_cast<int>(rng.NextBounded(10));
  options.bootstrap_fraction = rng.NextBounded(2) == 0 ? 0.5 : 1.0;
  options.tree = RandomTreeOptions(&rng, shape.num_features);
  options.feature_subsample =
      static_cast<int>(rng.NextBounded(shape.num_features + 1));
  options.seed = rng.Next();

  RandomForest forest(options);
  ASSERT_TRUE(forest.Train(set).ok());
  const std::vector<OracleTree> oracle = OracleTrainForest(set, options);
  ASSERT_EQ(static_cast<std::size_t>(forest.num_trees()), oracle.size());
  for (std::size_t t = 0; t < oracle.size(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    ExpectSameTree(Arrays(forest.tree(t)), oracle[t]);
  }
}

// A set grown one label batch at a time — retrained in place after every
// batch, as LearnerBank does — keeps value codes that give the same trees
// as a set built from the same examples in one go.
TEST_P(SplitSearchDifferentialTest, IncrementalGrowthMatchesOneShot) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 9);
  SetShape shape = RandomShape(&rng);
  shape.num_examples = 20 + rng.NextBounded(150);
  std::vector<FeatureDesc> descs;
  const std::vector<Example> examples = RandomExamples(&rng, shape, &descs);

  RandomForestOptions options;
  options.seed = rng.Next();
  TrainingSet grown(FeatureSchema(descs), shape.num_classes);
  RandomForest grown_forest(options);
  std::size_t added = 0;
  while (added < examples.size()) {
    const std::size_t batch = 1 + rng.NextBounded(12);
    for (std::size_t i = 0; i < batch && added < examples.size(); ++i) {
      ASSERT_TRUE(grown.Add(examples[added++]).ok());
    }
    ASSERT_TRUE(grown_forest.Train(grown).ok());

    TrainingSet one_shot(FeatureSchema(descs), shape.num_classes);
    for (std::size_t i = 0; i < added; ++i) {
      ASSERT_TRUE(one_shot.Add(examples[i]).ok());
    }
    RandomForest one_shot_forest(options);
    ASSERT_TRUE(one_shot_forest.Train(one_shot).ok());
    const std::vector<OracleTree> oracle = OracleTrainForest(one_shot, options);
    ASSERT_EQ(grown_forest.num_trees(), one_shot_forest.num_trees());
    for (std::size_t t = 0; t < oracle.size(); ++t) {
      SCOPED_TRACE("examples " + std::to_string(added) + ", tree " +
                   std::to_string(t));
      ExpectSameTree(Arrays(grown_forest.tree(t)),
                     Arrays(one_shot_forest.tree(t)));
      ExpectSameTree(Arrays(grown_forest.tree(t)), oracle[t]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitSearchDifferentialTest,
                         ::testing::Range(0, 60));

// One numeric feature holding two adjacent doubles, perfectly separating
// the labels. Round-half-to-even puts the midpoint of (lower, upper) onto
// `upper` when lower's last mantissa bit is odd: every item then goes
// left, the split degenerates, and the node stays a leaf. When the bit is
// even the midpoint is `lower` and the split stands.
TEST(SplitSearchEdgeTest, AdjacentDoublesMidpointRounding) {
  for (const double lower : {1.0 + 0x1p-52, 1.0 + 0x1p-51}) {
    const double upper = std::nextafter(lower, 2.0);
    const bool rounds_up = lower + (upper - lower) / 2.0 == upper;
    EXPECT_EQ(rounds_up, lower == 1.0 + 0x1p-52);
    TrainingSet set(FeatureSchema({{"x", FeatureType::kNumeric}}), 2);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(set.Add({{i % 2 == 0 ? lower : upper}, i % 2}).ok());
    }
    DecisionTree tree;
    ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
    std::vector<std::size_t> all(set.size());
    std::iota(all.begin(), all.end(), 0);
    ExpectSameTree(Arrays(tree), OracleTrainTree(set, all, {}, nullptr));
    EXPECT_EQ(tree.node_count(), rounds_up ? 1u : 3u);
  }
}

// Values far enough apart that upper − lower overflows: the threshold is
// +inf, everything goes left, and the node stays a leaf.
TEST(SplitSearchEdgeTest, OverflowingMidpointMakesLeaf) {
  TrainingSet set(FeatureSchema({{"x", FeatureType::kNumeric}}), 2);
  ASSERT_TRUE(set.Add({{-1e308}, 0}).ok());
  ASSERT_TRUE(set.Add({{1e308}, 1}).ok());
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
  ExpectSameTree(Arrays(tree), OracleTrainTree(set, {0, 1}, {}, nullptr));
  EXPECT_EQ(tree.node_count(), 1u);
}

// A retrain in place over a smaller set leaves no trace of the larger
// earlier tree.
TEST(SplitSearchEdgeTest, RetrainInPlaceMatchesFreshTree) {
  Rng rng(3);
  SetShape shape;
  shape.num_features = 4;
  shape.num_classes = 3;
  shape.num_examples = 150;
  shape.distinct = 8;
  const TrainingSet large = RandomSet(&rng, shape);
  shape.num_examples = 12;
  const TrainingSet small = RandomSet(&rng, shape);
  DecisionTree reused;
  ASSERT_TRUE(reused.Train(large, {}, nullptr).ok());
  ASSERT_TRUE(reused.Train(small, {}, nullptr).ok());
  DecisionTree fresh;
  ASSERT_TRUE(fresh.Train(small, {}, nullptr).ok());
  ExpectSameTree(Arrays(reused), Arrays(fresh));
}

}  // namespace
}  // namespace gdr
