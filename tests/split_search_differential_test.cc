// Differential suite for the counting split search: every tree and forest
// trained through the TrainingSet's dense value codes must equal, bit for
// bit, the tree the reference map/sort builder (testing/split_oracle.h)
// grows from the raw feature doubles — node arrays, thresholds, leaf
// majorities (the first-max tie-break), and the Rng state left behind.
#include <gtest/gtest.h>

#include <algorithm>
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

// One workspace shared by several forests, as a LearnerBank retrains its
// attributes' forests: a forest trained after others of a larger set, more
// levels and another class count is the oracle's, and the same forest
// again, also after a smaller set.
TEST(SplitSearchEdgeTest, SharedWorkspaceAcrossForestsMatchesOracle) {
  Rng rng(5);
  SetShape shape;
  shape.num_features = 5;
  shape.num_classes = 4;
  shape.num_examples = 400;
  shape.distinct = 40;
  const TrainingSet large = RandomSet(&rng, shape);
  shape.num_features = 3;
  shape.num_classes = 3;
  shape.num_examples = 60;
  shape.distinct = 6;
  const TrainingSet small = RandomSet(&rng, shape);
  shape.num_examples = 8;
  const TrainingSet tiny = RandomSet(&rng, shape);

  RandomForestOptions options;
  options.seed = rng.Next();
  SplitWorkspace workspace;
  RandomForest other(options);
  RandomForest forest(options);
  for (const TrainingSet* before : {&large, &tiny}) {
    ASSERT_TRUE(other.Train(*before, &workspace).ok());
    ASSERT_TRUE(forest.Train(small, &workspace).ok());
    const std::vector<OracleTree> oracle = OracleTrainForest(small, options);
    ASSERT_EQ(static_cast<std::size_t>(forest.num_trees()), oracle.size());
    for (std::size_t t = 0; t < oracle.size(); ++t) {
      SCOPED_TRACE("tree " + std::to_string(t));
      ExpectSameTree(Arrays(forest.tree(t)), oracle[t]);
    }
  }
}

// ---------------------------------------------------------------------------
// The weighted bag and the sort-free categorical sweep, over 2, 3 (the
// learner's feedback classes) and 4 classes.

// Trains a tree on `bag` and compares it, and the Rng state it leaves, with
// the oracle's tree over the same bag (duplicates passed as duplicates).
void ExpectTreeMatchesOracle(const TrainingSet& set,
                             const std::vector<std::size_t>& bag,
                             const DecisionTreeOptions& options,
                             std::uint64_t seed) {
  Rng production_rng(seed);
  Rng oracle_rng(seed);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, bag, options, &production_rng).ok());
  ExpectSameTree(Arrays(tree),
                 OracleTrainTree(set, bag, options, &oracle_rng));
  ExpectSameRngState(production_rng, oracle_rng);
}

class WeightedSplitTest : public ::testing::TestWithParam<int> {
 protected:
  int Classes() const { return 2 + GetParam() % 3; }
};

// A few examples drawn hundreds of times: every count, entropy and
// min_samples_split test reads multiplicities, not distinct items.
TEST_P(WeightedSplitTest, HeavilyDuplicatedBagMatchesOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 3);
  SetShape shape = RandomShape(&rng);
  shape.num_classes = Classes();
  shape.num_examples = 4 + rng.NextBounded(80);
  const TrainingSet set = RandomSet(&rng, shape);
  DecisionTreeOptions options = RandomTreeOptions(&rng, shape.num_features);
  static constexpr int kMinSplits[] = {2, 20, 60, 200};
  options.min_samples_split = kMinSplits[rng.NextBounded(4)];

  const std::size_t distinct =
      1 + rng.NextBounded(std::min<std::size_t>(set.size(), 8));
  const std::vector<std::size_t> picks =
      rng.SampleWithoutReplacement(set.size(), distinct);
  std::vector<std::size_t> bag;
  const std::size_t bag_size = 50 + rng.NextBounded(500);
  for (std::size_t k = 0; k < bag_size; ++k) {
    // Skewed: the first pick takes about half of the draws.
    bag.push_back(rng.NextBounded(2) == 0 ? picks[0]
                                          : picks[rng.NextBounded(distinct)]);
  }
  ExpectTreeMatchesOracle(set, bag, options, rng.Next());
}

// Many levels of one categorical feature share one class-count row while
// their values differ (negative, tiny, large, and at most one zero of
// either sign), added in shuffled order: their one-vs-rest gains tie
// exactly, and the smallest value must win, as the oracle's ascending
// sweep with a strict `>` decides. The tied levels hold `weight` items of
// the last class, a minority; every other level holds one item of another
// class, so isolating a tied level is the root's best split.
TEST_P(WeightedSplitTest, SharedClassRowsPickSmallestValue) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97531 + 17);
  const int classes = Classes();
  const std::size_t tied = 3 + rng.NextBounded(60);
  const std::size_t weight = 1 + rng.NextBounded(3);
  const std::size_t others = (tied * weight + 1) * (classes - 1) +
                             rng.NextBounded(100);
  std::vector<double> values;
  const double zero = rng.NextBounded(2) == 0 ? 0.0 : -0.0;
  values.push_back(zero);
  while (values.size() < tied + others) {
    const double magnitude =
        rng.NextBounded(4) == 0 ? std::ldexp(1.0, -1000 + static_cast<int>(
                                                          rng.NextBounded(50)))
                                : rng.NextDouble() * 1e6;
    const double value = rng.NextBounded(2) == 0 ? -magnitude : magnitude;
    if (value == 0.0 ||
        std::find(values.begin(), values.end(), value) != values.end()) {
      continue;
    }
    values.push_back(value);
  }
  for (std::size_t i = values.size() - 1; i > 0; --i) {
    std::swap(values[i], values[rng.NextBounded(i + 1)]);
  }

  TrainingSet set(FeatureSchema({{"level", FeatureType::kCategorical}}),
                  classes);
  std::vector<Example> examples;
  for (std::size_t l = 0; l < tied; ++l) {
    for (std::size_t w = 0; w < weight; ++w) {
      examples.push_back({{values[l]}, classes - 1});
    }
  }
  for (std::size_t l = 0; l < others; ++l) {
    examples.push_back(
        {{values[tied + l]}, static_cast<int>(l % (classes - 1))});
  }
  for (std::size_t i = examples.size() - 1; i > 0; --i) {
    std::swap(examples[i], examples[rng.NextBounded(i + 1)]);
  }
  for (Example& e : examples) ASSERT_TRUE(set.Add(std::move(e)).ok());

  DecisionTreeOptions options;
  options.max_depth = 1 << 20;
  std::vector<std::size_t> all(set.size());
  std::iota(all.begin(), all.end(), 0);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, all, options, nullptr).ok());
  ExpectSameTree(Arrays(tree), OracleTrainTree(set, all, options, nullptr));
  const double smallest =
      *std::min_element(values.begin(), values.begin() +
                                            static_cast<std::ptrdiff_t>(tied));
  ASSERT_GT(tree.node_count(), 1u);
  EXPECT_EQ(tree.node_categorical()[0], 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.node_thresholds()[0]),
            std::bit_cast<std::uint64_t>(smallest));

  // The same set under bootstrap bags and a forest.
  std::vector<std::size_t> bag(set.size());
  for (std::size_t& i : bag) i = rng.NextBounded(set.size());
  ExpectTreeMatchesOracle(set, bag, options, rng.Next());
  RandomForestOptions forest_options;
  forest_options.seed = rng.Next();
  RandomForest forest(forest_options);
  ASSERT_TRUE(forest.Train(set).ok());
  const std::vector<OracleTree> oracle =
      OracleTrainForest(set, forest_options);
  for (std::size_t t = 0; t < oracle.size(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    ExpectSameTree(Arrays(forest.tree(t)), oracle[t]);
  }
}

// Categorical features with 300 to 600 levels, several items per level
// and labels drawn at random: hundreds of distinct class-count rows per
// node.
TEST_P(WeightedSplitTest, HighCardinalityCategoricalMatchesOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 29);
  const int classes = Classes();
  const std::size_t num_features = 2 + rng.NextBounded(3);
  std::vector<FeatureDesc> descs;
  std::vector<std::vector<double>> pools;
  for (std::size_t f = 0; f < num_features; ++f) {
    const bool categorical = f < 2 || rng.NextBounded(2) == 0;
    descs.push_back({"f" + std::to_string(f),
                     categorical ? FeatureType::kCategorical
                                 : FeatureType::kNumeric});
    const std::size_t levels = categorical ? 300 + rng.NextBounded(301) : 20;
    std::vector<double> pool;
    for (std::size_t v = 0; v < levels; ++v) {
      pool.push_back(categorical ? static_cast<double>(v) * 3.0 - 500.0
                                 : rng.NextDouble());
    }
    pools.push_back(std::move(pool));
  }
  TrainingSet set(FeatureSchema(descs), classes);
  const std::size_t num_examples = 1000 + rng.NextBounded(1000);
  for (std::size_t i = 0; i < num_examples; ++i) {
    Example example;
    for (std::size_t f = 0; f < num_features; ++f) {
      example.features.push_back(pools[f][rng.NextBounded(pools[f].size())]);
    }
    // Level-dependent labels with noise, so rows vary across levels.
    const std::size_t level =
        static_cast<std::size_t>(example.features[0] + 500.0) / 3;
    example.label = static_cast<int>(
        (rng.NextBounded(3) == 0 ? rng.NextBounded(classes) : level % 7) %
        static_cast<std::size_t>(classes));
    ASSERT_TRUE(set.Add(std::move(example)).ok());
  }
  DecisionTreeOptions options = RandomTreeOptions(&rng, num_features);
  std::vector<std::size_t> bag(set.size());
  for (std::size_t& i : bag) i = rng.NextBounded(set.size());
  ExpectTreeMatchesOracle(set, bag, options, rng.Next());

  RandomForestOptions forest_options;
  forest_options.num_trees = 3;
  forest_options.seed = rng.Next();
  RandomForest forest(forest_options);
  ASSERT_TRUE(forest.Train(set).ok());
  const std::vector<OracleTree> oracle =
      OracleTrainForest(set, forest_options);
  for (std::size_t t = 0; t < oracle.size(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    ExpectSameTree(Arrays(forest.tree(t)), oracle[t]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSplitTest, ::testing::Range(0, 24));

// +0.0 and -0.0 share one level, whose value is the one added first: the
// level is the smallest of the node, so the root's threshold carries that
// sign bit.
TEST(SplitSearchEdgeTest, SignedZeroLevelKeepsFirstSign) {
  for (const double first : {0.0, -0.0}) {
    TrainingSet set(FeatureSchema({{"level", FeatureType::kCategorical}}), 3);
    ASSERT_TRUE(set.Add({{first}, 2}).ok());
    ASSERT_TRUE(set.Add({{-first}, 2}).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(set.Add({{1.0 + i}, i % 2}).ok());
    }
    // A second minority level with the zero level's row.
    ASSERT_TRUE(set.Add({{5e-324}, 2}).ok());
    ASSERT_TRUE(set.Add({{5e-324}, 2}).ok());
    DecisionTree tree;
    ASSERT_TRUE(tree.Train(set, {}, nullptr).ok());
    std::vector<std::size_t> all(set.size());
    std::iota(all.begin(), all.end(), 0);
    ExpectSameTree(Arrays(tree), OracleTrainTree(set, all, {}, nullptr));
    ASSERT_GT(tree.node_count(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.node_thresholds()[0]),
              std::bit_cast<std::uint64_t>(first));
  }
}

}  // namespace
}  // namespace gdr
