#include "repair/update_generator.h"

#include <gtest/gtest.h>

#include "util/string_similarity.h"

namespace gdr {
namespace {

class GeneratorFixture : public ::testing::Test {
 protected:
  GeneratorFixture()
      : schema_(*Schema::Make({"STR", "CT", "STT", "ZIP"})), table_(schema_),
        rules_(schema_) {}

  void Append(const char* str, const char* ct, const char* stt,
              const char* zip) {
    ASSERT_TRUE(table_.AppendRow({str, ct, stt, zip}).ok());
  }

  void Build() {
    index_ = std::make_unique<ViolationIndex>(&table_, &rules_);
    generator_ =
        std::make_unique<UpdateGenerator>(index_.get(), &table_, &state_);
  }

  std::string ValueOf(const Update& update) const {
    return table_.dict(update.attr).ToString(update.value);
  }

  Schema schema_;
  Table table_;
  RuleSet rules_;
  RepairState state_;
  std::unique_ptr<ViolationIndex> index_;
  std::unique_ptr<UpdateGenerator> generator_;
};

TEST_F(GeneratorFixture, Scenario1AdoptsPatternConstant) {
  ASSERT_TRUE(
      rules_.AddRuleFromString("phi1", "ZIP=46360 -> CT=Michigan City").ok());
  Append("Main St", "Michigan Cty", "IN", "46360");  // typo in city
  Build();

  const AttrId ct = schema_.FindAttr("CT");
  auto update = generator_->UpdateAttributeTuple(0, ct);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(ValueOf(*update), "Michigan City");
  // Eq. 7 similarity on the pattern constant with conf = 1.
  EXPECT_NEAR(update->score,
              NormalizedEditSimilarity("Michigan Cty", "Michigan City"),
              1e-9);
}

TEST_F(GeneratorFixture, Scenario2AdoptsMajorityPartnerValue) {
  ASSERT_TRUE(rules_.AddRuleFromString("phi5", "STR, CT -> ZIP").ok());
  // Three agreeing tuples, one outlier.
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46803");  // wrong zip
  Build();

  const AttrId zip = schema_.FindAttr("ZIP");
  auto update = generator_->UpdateAttributeTuple(3, zip);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(ValueOf(*update), "46802");
  // conf = 3/(3+1), sim = 4/5.
  EXPECT_NEAR(update->score, 0.8 * 0.75, 1e-9);
}

TEST_F(GeneratorFixture, Scenario2MinorityAdoptionScoresLow) {
  ASSERT_TRUE(rules_.AddRuleFromString("phi5", "STR, CT -> ZIP").ok());
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46803");
  Build();

  // The majority tuple is offered the outlier's value, but with conf
  // 1/(1+3) = 0.25 — a deliberately weak suggestion.
  const AttrId zip = schema_.FindAttr("ZIP");
  auto update = generator_->UpdateAttributeTuple(0, zip);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(ValueOf(*update), "46803");
  EXPECT_NEAR(update->score, 0.8 * 0.25, 1e-9);
}

TEST_F(GeneratorFixture, Scenario3SuggestsFromProjection) {
  ASSERT_TRUE(rules_.AddRuleFromString("phi5", "STR, CT -> ZIP").ok());
  // t0/t1 conflict on zip within (Maple Rd, Fort Wayne); t2 shows that
  // (CT=Fort Wayne, ZIP=46802) tuples carry street "Maple Dr".
  Append("Maple Rd", "Fort Wayne", "IN", "46802");
  Append("Maple Rd", "Fort Wayne", "IN", "46803");
  Append("Maple Dr", "Fort Wayne", "IN", "46802");
  Append("Maple Dr", "Fort Wayne", "IN", "46802");
  Build();

  // STR is in LHS(phi5); the projection key for t0 is (CT, ZIP) =
  // (Fort Wayne, 46802) whose street values are {Maple Rd, Maple Dr}.
  const AttrId str = schema_.FindAttr("STR");
  auto update = generator_->UpdateAttributeTuple(0, str);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(ValueOf(*update), "Maple Dr");
}

TEST_F(GeneratorFixture, FrozenCellYieldsNothing) {
  ASSERT_TRUE(
      rules_.AddRuleFromString("phi1", "ZIP=46360 -> CT=Michigan City").ok());
  Append("Main St", "Wrong", "IN", "46360");
  Build();
  const AttrId ct = schema_.FindAttr("CT");
  state_.Freeze(CellKey{0, ct});
  EXPECT_FALSE(generator_->UpdateAttributeTuple(0, ct).has_value());
}

TEST_F(GeneratorFixture, PreventedValueIsSkipped) {
  ASSERT_TRUE(
      rules_.AddRuleFromString("phi1", "ZIP=46360 -> CT=Michigan City").ok());
  Append("Main St", "Wrong", "IN", "46360");
  Build();
  const AttrId ct = schema_.FindAttr("CT");
  const ValueId mc = table_.InternValue(ct, "Michigan City");
  state_.Prevent(CellKey{0, ct}, mc);
  auto update = generator_->UpdateAttributeTuple(0, ct);
  // The only candidate was prevented.
  EXPECT_FALSE(update.has_value());
}

TEST_F(GeneratorFixture, CleanTupleYieldsNothing) {
  ASSERT_TRUE(
      rules_.AddRuleFromString("phi1", "ZIP=46360 -> CT=Michigan City").ok());
  Append("Main St", "Michigan City", "IN", "46360");
  Build();
  for (std::size_t a = 0; a < schema_.num_attrs(); ++a) {
    EXPECT_FALSE(
        generator_->UpdateAttributeTuple(0, static_cast<AttrId>(a))
            .has_value());
  }
}

TEST_F(GeneratorFixture, NeverSuggestsCurrentValue) {
  ASSERT_TRUE(rules_.AddRuleFromString("phi5", "STR, CT -> ZIP").ok());
  Append("Main St", "Fort Wayne", "IN", "46802");
  Append("Main St", "Fort Wayne", "IN", "46803");
  Build();
  const AttrId zip = schema_.FindAttr("ZIP");
  for (RowId row : {RowId{0}, RowId{1}}) {
    auto update = generator_->UpdateAttributeTuple(row, zip);
    ASSERT_TRUE(update.has_value());
    EXPECT_NE(update->value, table_.id_at(row, zip));
  }
}

TEST_F(GeneratorFixture, ZeroSimilarityCandidatesAreAdmissible) {
  // Correct value shares no characters with the dirty one (domain swap);
  // the strict paper pseudocode would drop it, this implementation keeps
  // it (see header comment).
  ASSERT_TRUE(rules_.AddRuleFromString("phi1", "ZIP=11111 -> CT=Zzz").ok());
  Append("Main St", "Qqq", "IN", "11111");
  Build();
  const AttrId ct = schema_.FindAttr("CT");
  auto update = generator_->UpdateAttributeTuple(0, ct);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(ValueOf(*update), "Zzz");
  EXPECT_DOUBLE_EQ(update->score, 0.0);
}

TEST_F(GeneratorFixture, ProjectionBucketsFollowCellChanges) {
  ASSERT_TRUE(rules_.AddRuleFromString("phi5", "STR, CT -> ZIP").ok());
  Append("Maple Rd", "Fort Wayne", "IN", "46802");
  Append("Maple Rd", "Fort Wayne", "IN", "46803");
  Append("Maple Dr", "Fort Wayne", "IN", "46802");
  Build();
  const AttrId str = schema_.FindAttr("STR");
  auto first = generator_->UpdateAttributeTuple(0, str);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(ValueOf(*first), "Maple Dr");

  // Rename the t2 street through the index; its maintained bucket must
  // list the new value.
  index_->ApplyCellChange(2, str, std::string_view("Maple Ct"));
  auto second = generator_->UpdateAttributeTuple(0, str);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(ValueOf(*second), "Maple Ct");
}

}  // namespace
}  // namespace gdr
