#include "ml/example.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace gdr {
namespace {

FeatureSchema TwoFeatureSchema() {
  return FeatureSchema({{"cat", FeatureType::kCategorical},
                        {"num", FeatureType::kNumeric}});
}

TEST(TrainingSetTest, AddValidatesArity) {
  TrainingSet set(TwoFeatureSchema(), 2);
  EXPECT_TRUE(set.Add({{1.0, 0.5}, 0}).ok());
  EXPECT_FALSE(set.Add({{1.0}, 0}).ok());
  EXPECT_FALSE(set.Add({{1.0, 2.0, 3.0}, 0}).ok());
}

TEST(TrainingSetTest, AddValidatesLabelRange) {
  TrainingSet set(TwoFeatureSchema(), 2);
  EXPECT_FALSE(set.Add({{1.0, 0.5}, -1}).ok());
  EXPECT_FALSE(set.Add({{1.0, 0.5}, 2}).ok());
  EXPECT_TRUE(set.Add({{1.0, 0.5}, 1}).ok());
}

TEST(TrainingSetTest, ClassCounts) {
  TrainingSet set(TwoFeatureSchema(), 3);
  ASSERT_TRUE(set.Add({{0.0, 0.0}, 0}).ok());
  ASSERT_TRUE(set.Add({{0.0, 0.0}, 2}).ok());
  ASSERT_TRUE(set.Add({{0.0, 0.0}, 2}).ok());
  EXPECT_EQ(set.ClassCounts(), (std::vector<std::size_t>{1, 0, 2}));
  EXPECT_EQ(set.size(), 3u);
}

TEST(TrainingSetTest, AddRejectsNonFiniteFeaturesAndChangesNothing) {
  TrainingSet set(TwoFeatureSchema(), 2);
  ASSERT_TRUE(set.Add({{1.0, 0.5}, 0}).ok());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // Feature 0 is valid and new, so a partial update would show in its
    // levels.
    const Status added = set.Add({{9.0, bad}, 1});
    EXPECT_EQ(added.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(set.Add({{bad, 0.5}, 1}).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.levels(0), (std::vector<double>{1.0}));
  EXPECT_EQ(set.levels(1), (std::vector<double>{0.5}));
}

TEST(TrainingSetTest, ValueCodesInFirstAppearanceOrder) {
  TrainingSet set(TwoFeatureSchema(), 2);
  ASSERT_TRUE(set.Add({{7.0, 0.25}, 0}).ok());
  ASSERT_TRUE(set.Add({{3.0, 0.25}, 1}).ok());
  ASSERT_TRUE(set.Add({{7.0, -1.5}, 0}).ok());
  ASSERT_TRUE(set.Add({{0.0, 2.0}, 1}).ok());
  ASSERT_TRUE(set.Add({{-0.0, 0.25}, 1}).ok());  // == 0.0: same code
  EXPECT_EQ(set.levels(0), (std::vector<double>{7.0, 3.0, 0.0}));
  EXPECT_EQ(set.levels(1), (std::vector<double>{0.25, -1.5, 2.0}));
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t f = 0; f < 2; ++f) {
      EXPECT_EQ(set.levels(f)[set.code(i, f)], set.example(i).features[f]);
    }
  }
  EXPECT_EQ(set.code(4, 0), set.code(3, 0));
}

TEST(FeatureSchemaTest, TypePredicates) {
  FeatureSchema schema = TwoFeatureSchema();
  EXPECT_TRUE(schema.IsCategorical(0));
  EXPECT_FALSE(schema.IsCategorical(1));
  EXPECT_EQ(schema.feature(0).name, "cat");
  EXPECT_EQ(schema.num_features(), 2u);
}

}  // namespace
}  // namespace gdr
