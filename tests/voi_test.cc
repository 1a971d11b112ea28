#include "core/voi.h"

#include <gtest/gtest.h>

namespace gdr {
namespace {

// Reproduces the worked example of Section 4.1: an 8-tuple instance where
// 4 tuples fall in phi1's context (ZIP = 46360), all violating it; the
// group suggests CT := 'Michigan City' for three of them with p-tilde =
// {0.9, 0.6, 0.6}; with w1 = 4/8 the estimated benefit is
//   4/8 * (0.9*(4-3)/1 + 0.6*(4-3)/1 + 0.6*(4-3)/1) = 1.05.
class Section41Example : public ::testing::Test {
 protected:
  Section41Example()
      : schema_(*Schema::Make({"CT", "ZIP"})), table_(schema_),
        rules_(schema_) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(table_.AppendRow({"Wrong" + std::to_string(i), "46360"})
                      .ok());
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(table_.AppendRow({"Westville", "46391"}).ok());
    }
    EXPECT_TRUE(
        rules_.AddRuleFromString("phi1", "ZIP=46360 -> CT=Michigan City")
            .ok());
    index_ = std::make_unique<ViolationIndex>(&table_, &rules_);
    weights_ = {4.0 / 8.0};  // the example's w1
    ranker_ = std::make_unique<VoiRanker>(index_.get(), &weights_);
    michigan_city_ = table_.InternValue(0, "Michigan City");
  }

  Schema schema_;
  Table table_;
  RuleSet rules_;
  std::unique_ptr<ViolationIndex> index_;
  std::vector<double> weights_;
  std::unique_ptr<VoiRanker> ranker_;
  ValueId michigan_city_;
};

TEST_F(Section41Example, GroupBenefitIsOnePointOhFive) {
  UpdateGroup group;
  group.attr = 0;
  group.value = michigan_city_;
  group.updates = {{0, 0, michigan_city_, 0.0},
                   {1, 0, michigan_city_, 0.0},
                   {2, 0, michigan_city_, 0.0}};
  const std::vector<double> p_tilde = {0.9, 0.6, 0.6};
  auto probability = [&](const Update& u) {
    return p_tilde[static_cast<std::size_t>(u.row)];
  };
  EXPECT_NEAR(ranker_->Rank({group}, probability).scores[0], 1.05, 1e-9);
}

TEST_F(Section41Example, SingleUpdateBenefitTerm) {
  // (vio(D) - vio(D^r)) / |D^r |= phi1| = (4-3)/1 = 1, weighted by 4/8.
  const Update update{0, 0, michigan_city_, 0.0};
  EXPECT_NEAR(ranker_->UpdateBenefit(update), 0.5, 1e-9);
}

TEST_F(Section41Example, ScoringLeavesIndexUntouched) {
  const std::int64_t vio_before = index_->TotalViolations();
  const Update update{0, 0, michigan_city_, 0.0};
  ranker_->UpdateBenefit(update);
  EXPECT_EQ(index_->TotalViolations(), vio_before);
  EXPECT_EQ(table_.at(0, 0), "Wrong0");
}

TEST_F(Section41Example, UnrelatedAttributeHasZeroBenefit) {
  // An update on ZIP of an out-of-context tuple resolves nothing.
  const ValueId zip = table_.InternValue(1, "46391");
  const Update update{4, 1, zip, 0.0};
  EXPECT_DOUBLE_EQ(ranker_->UpdateBenefit(update), 0.0);
}

TEST_F(Section41Example, HarmfulUpdateHasNegativeBenefit) {
  // First fix one in-context tuple so phi1 has a satisfying tuple (the
  // Eq. 6 denominator); then dragging a clean Westville tuple into the
  // violated 46360 context adds a violation: benefit = 0.5*(3-4)/1.
  index_->ApplyCellChange(0, 0, michigan_city_);
  const ValueId bad_zip = table_.InternValue(1, "46360");
  const Update update{4, 1, bad_zip, 0.0};
  EXPECT_NEAR(ranker_->UpdateBenefit(update), -0.5, 1e-9);
}

TEST_F(Section41Example, RankOrdersGroupsByScore) {
  UpdateGroup fixers;
  fixers.attr = 0;
  fixers.value = michigan_city_;
  fixers.updates = {{0, 0, michigan_city_, 0.9}};

  const ValueId bad_zip = table_.InternValue(1, "46360");
  UpdateGroup breakers;
  breakers.attr = 1;
  breakers.value = bad_zip;
  breakers.updates = {{4, 1, bad_zip, 0.9}};

  const std::vector<UpdateGroup> groups = {breakers, fixers};
  const VoiRanker::Ranking ranking =
      ranker_->Rank(groups, [](const Update& u) { return u.score; });
  ASSERT_EQ(ranking.order.size(), 2u);
  EXPECT_EQ(ranking.order[0], 1u);  // fixers first
  EXPECT_GT(ranking.scores[1], ranking.scores[0]);
}

TEST_F(Section41Example, ProbabilityScalesBenefit) {
  UpdateGroup group;
  group.attr = 0;
  group.value = michigan_city_;
  group.updates = {{0, 0, michigan_city_, 0.0}};
  const double full =
      ranker_->Rank({group}, [](const Update&) { return 1.0; }).scores[0];
  const double half =
      ranker_->Rank({group}, [](const Update&) { return 0.5; }).scores[0];
  EXPECT_NEAR(half, full / 2.0, 1e-12);
}

TEST(VoiVariableRuleTest, BenefitCountsPairwiseResolution) {
  Schema schema = *Schema::Make({"STR", "CT", "ZIP"});
  Table table(schema);
  // Conflicted group (Main St): 3 x 46802 vs 1 x 46803 -> 6 ordered
  // violating pairs. Clean group (Oak Ave): 4 satisfying tuples.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(table.AppendRow({"Main St", "Fort Wayne", "46802"}).ok());
  }
  ASSERT_TRUE(table.AppendRow({"Main St", "Fort Wayne", "46803"}).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.AppendRow({"Oak Ave", "Fort Wayne", "46802"}).ok());
  }
  RuleSet rules(schema);
  ASSERT_TRUE(rules.AddRuleFromString("phi5", "STR, CT -> ZIP").ok());
  ViolationIndex index(&table, &rules);
  ASSERT_EQ(index.RuleViolations(0), 6);
  const std::vector<double> weights = {1.0};
  VoiRanker ranker(&index, &weights);

  // Fixing the outlier removes all 6 pairs; afterwards all 8 tuples
  // satisfy the rule: benefit = 6/8.
  const ValueId good = table.dict(2).Lookup("46802");
  EXPECT_NEAR(ranker.UpdateBenefit({3, 2, good, 0.0}), 6.0 / 8.0, 1e-12);

  // Adopting the outlier's value on a majority tuple makes the Main St
  // group 2-vs-2: vio rises 6 -> 8 while only the Oak Ave tuples satisfy.
  // Benefit = (6 - 8)/4 = -0.5.
  const ValueId bad = table.dict(2).Lookup("46803");
  EXPECT_NEAR(ranker.UpdateBenefit({0, 2, bad, 0.0}), -0.5, 1e-12);
}

}  // namespace
}  // namespace gdr
