#include "cfd/violation_index.h"

#include <gtest/gtest.h>

#include "core/learner_bank.h"
#include "testing/rule_scan_oracle.h"
#include "util/rng.h"

namespace gdr {
namespace {

// A Figure-1-style Customer instance:
//   rules: phi1..phi4 constant (zip -> city, state), phi5 variable
//   (STR, CT=Fort Wayne -> ZIP).
class Figure1Fixture : public ::testing::Test {
 protected:
  Figure1Fixture()
      : schema_(*Schema::Make({"Name", "SRC", "STR", "CT", "STT", "ZIP"})),
        table_(schema_),
        rules_(schema_) {
    Append("a", "H1", "Sherden Rd", "Fort Wayne", "IN", "46825");   // t0 clean
    Append("b", "H1", "Sherden Rd", "Fort Wayne", "IN", "46391");   // t1 zip err
    Append("c", "H2", "Oak Ave", "Michigan Cty", "IN", "46360");    // t2 city typo
    Append("d", "H2", "Oak Ave", "Michigan Cty", "IN", "46360");    // t3 city typo
    Append("e", "H3", "Main St", "New Haven", "IND", "46774");      // t4 state typo
    Append("f", "H4", "Main St", "Westville", "IN", "46391");       // t5 clean

    Add("phi1", "ZIP=46360 -> CT=Michigan City ; STT=IN");
    Add("phi2", "ZIP=46774 -> CT=New Haven ; STT=IN");
    Add("phi3", "ZIP=46825 -> CT=Fort Wayne ; STT=IN");
    Add("phi4", "ZIP=46391 -> CT=Westville ; STT=IN");
    Add("phi5", "STR, CT=Fort Wayne -> ZIP");
    index_ = std::make_unique<ViolationIndex>(&table_, &rules_);
  }

  void Append(const char* name, const char* src, const char* str,
              const char* ct, const char* stt, const char* zip) {
    ASSERT_TRUE(table_.AppendRow({name, src, str, ct, stt, zip}).ok());
  }

  void Add(const char* name, const char* text) {
    ASSERT_TRUE(rules_.AddRuleFromString(name, text).ok());
  }

  RuleId Rule(const char* name) const {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_.rule(static_cast<RuleId>(i)).name() == name) {
        return static_cast<RuleId>(i);
      }
    }
    return kInvalidRuleId;
  }

  Schema schema_;
  Table table_;
  RuleSet rules_;
  std::unique_ptr<ViolationIndex> index_;
};

TEST_F(Figure1Fixture, ConstantRuleViolations) {
  const RuleId phi1_ct = Rule("phi1.1");
  ASSERT_NE(phi1_ct, kInvalidRuleId);
  // t2, t3 have zip 46360 with a mistyped city.
  EXPECT_EQ(index_->TupleViolation(2, phi1_ct), 1);
  EXPECT_EQ(index_->TupleViolation(3, phi1_ct), 1);
  EXPECT_EQ(index_->TupleViolation(0, phi1_ct), 0);  // out of context
  EXPECT_EQ(index_->RuleViolations(phi1_ct), 2);
  EXPECT_EQ(index_->ViolatingCount(phi1_ct), 2);
  EXPECT_EQ(index_->ContextCount(phi1_ct), 2);
  EXPECT_EQ(index_->SatisfyingCount(phi1_ct), 0);  // in-context satisfying
}

TEST_F(Figure1Fixture, StateRuleViolations) {
  const RuleId phi2_stt = Rule("phi2.2");
  ASSERT_NE(phi2_stt, kInvalidRuleId);
  EXPECT_EQ(index_->TupleViolation(4, phi2_stt), 1);  // "IND"
  EXPECT_EQ(index_->RuleViolations(phi2_stt), 1);
}

TEST_F(Figure1Fixture, Phi4CityRule) {
  const RuleId phi4_ct = Rule("phi4.1");
  // t1 (Fort Wayne, 46391) violates; t5 (Westville, 46391) satisfies.
  EXPECT_EQ(index_->TupleViolation(1, phi4_ct), 1);
  EXPECT_EQ(index_->TupleViolation(5, phi4_ct), 0);
  EXPECT_EQ(index_->ContextCount(phi4_ct), 2);
  EXPECT_EQ(index_->SatisfyingCount(phi4_ct), 1);
}

TEST_F(Figure1Fixture, VariableRulePairwiseViolations) {
  const RuleId phi5 = Rule("phi5");
  ASSERT_NE(phi5, kInvalidRuleId);
  // Group (Sherden Rd, Fort Wayne) = {t0:46825, t1:46391}: each violates
  // with the other (Definition 1: vio = #partners).
  EXPECT_EQ(index_->TupleViolation(0, phi5), 1);
  EXPECT_EQ(index_->TupleViolation(1, phi5), 1);
  // Pairwise counting: 2 ordered pairs.
  EXPECT_EQ(index_->RuleViolations(phi5), 2);
  EXPECT_EQ(index_->ViolatingCount(phi5), 2);
  // Context = tuples with CT ≍ Fort Wayne.
  EXPECT_EQ(index_->ContextCount(phi5), 2);
  EXPECT_EQ(index_->SatisfyingCount(phi5), 0);
  // t4/t5 (Main St) are outside the Fort Wayne context.
  EXPECT_EQ(index_->TupleViolation(4, phi5), 0);
  EXPECT_EQ(index_->TupleViolation(5, phi5), 0);
}

TEST_F(Figure1Fixture, ViolationPartnersAndGroupMembers) {
  const RuleId phi5 = Rule("phi5");
  EXPECT_EQ(index_->ViolationPartners(0, phi5), (std::vector<RowId>{1}));
  EXPECT_EQ(index_->ViolationPartners(1, phi5), (std::vector<RowId>{0}));
  EXPECT_EQ(index_->GroupMembers(0, phi5), (std::vector<RowId>{0, 1}));
  // Constant rules have no partners.
  EXPECT_TRUE(index_->ViolationPartners(2, Rule("phi1.1")).empty());
  // Out-of-context rows have neither.
  EXPECT_TRUE(index_->ViolationPartners(4, phi5).empty());
  EXPECT_TRUE(index_->GroupMembers(4, phi5).empty());
}

TEST_F(Figure1Fixture, GroupCounts) {
  const RuleId phi5 = Rule("phi5");
  EXPECT_EQ(index_->GroupTotal(0, phi5), 2);
  const ValueId zip_46825 = table_.dict(schema_.FindAttr("ZIP")).Lookup("46825");
  const ValueId zip_46391 = table_.dict(schema_.FindAttr("ZIP")).Lookup("46391");
  EXPECT_EQ(index_->GroupRhsValueCount(0, phi5, zip_46825), 1);
  EXPECT_EQ(index_->GroupRhsValueCount(0, phi5, zip_46391), 1);
  // Constant rules report 0.
  EXPECT_EQ(index_->GroupTotal(2, Rule("phi1.1")), 0);
}

TEST_F(Figure1Fixture, DirtyRows) {
  EXPECT_TRUE(index_->IsDirty(0));   // phi5 partner
  EXPECT_TRUE(index_->IsDirty(1));   // phi4 + phi5
  EXPECT_TRUE(index_->IsDirty(2));
  EXPECT_TRUE(index_->IsDirty(4));
  EXPECT_FALSE(index_->IsDirty(5));
  EXPECT_EQ(index_->DirtyRows(), (std::vector<RowId>{0, 1, 2, 3, 4}));
}

TEST_F(Figure1Fixture, ViolatedRules) {
  const std::vector<RuleId> violated = index_->ViolatedRules(1);
  // t1 violates phi4.1 (city) and phi5; state rule phi4.2 is satisfied.
  EXPECT_EQ(violated.size(), 2u);
  EXPECT_EQ(index_->ViolatedRuleCount(1), 2);
  EXPECT_EQ(index_->ViolatedRuleCount(5), 0);
}

TEST_F(Figure1Fixture, ApplyCellChangeResolvesViolations) {
  const RuleId phi5 = Rule("phi5");
  const AttrId zip = schema_.FindAttr("ZIP");
  const std::int64_t before = index_->TotalViolations();
  // Fix t1's zip to 46825: resolves phi4.1, phi5 for both t0 and t1.
  index_->ApplyCellChange(1, zip, std::string_view("46825"));
  EXPECT_EQ(index_->RuleViolations(phi5), 0);
  EXPECT_FALSE(index_->IsDirty(0));
  EXPECT_FALSE(index_->IsDirty(1));
  EXPECT_LT(index_->TotalViolations(), before);
  EXPECT_EQ(table_.at(1, zip), "46825");
}

TEST_F(Figure1Fixture, ApplyCellChangeCanCreateViolations) {
  const AttrId ct = schema_.FindAttr("CT");
  // Make t5 a Fort Wayne tuple: joins the phi5 context with Main St and a
  // different zip than nobody -> fresh group, but now violates phi4.1.
  index_->ApplyCellChange(5, ct, std::string_view("Fort Wayne"));
  EXPECT_TRUE(index_->IsDirty(5));
  const RuleId phi4_ct = Rule("phi4.1");
  EXPECT_EQ(index_->TupleViolation(5, phi4_ct), 1);
  // t4 has Main St but is not in the Fort Wayne context: no phi5 pair.
  EXPECT_EQ(index_->TupleViolation(5, Rule("phi5")), 0);
}

TEST_F(Figure1Fixture, ApplyThenRevertRestoresState) {
  const AttrId zip = schema_.FindAttr("ZIP");
  const std::int64_t vio_before = index_->TotalViolations();
  const std::vector<RowId> dirty_before = index_->DirtyRows();
  const ValueId old_value =
      index_->ApplyCellChange(1, zip, std::string_view("46825"));
  index_->ApplyCellChange(1, zip, old_value);
  EXPECT_EQ(index_->TotalViolations(), vio_before);
  EXPECT_EQ(index_->DirtyRows(), dirty_before);
  EXPECT_EQ(table_.at(1, zip), "46391");
}

TEST_F(Figure1Fixture, VersionAdvancesOnEffectiveChangesOnly) {
  const AttrId zip = schema_.FindAttr("ZIP");
  const std::uint64_t v0 = index_->version();
  index_->ApplyCellChange(1, zip, table_.id_at(1, zip));  // no-op
  EXPECT_EQ(index_->version(), v0);
  index_->ApplyCellChange(1, zip, std::string_view("46825"));
  EXPECT_GT(index_->version(), v0);
}

// The learner encoder's violations_after, which it derives from the staged
// HypotheticalBatch probe, equals both applying the write and counting and
// the all-rules scan of tests/testing/rule_scan_oracle.h, over every row ×
// attribute × value: no-op writes and an appended row included.
TEST_F(Figure1Fixture, ProbedViolationsAfterMatchesApplyAndScan) {
  ASSERT_TRUE(index_
                  ->AppendRow({"g", "H5", "Sherden Rd", "Fort Wayne", "IN",
                               "46774"})
                  .ok());
  const LearnerBank encoder(&table_, index_.get());
  const rule_scan_testing::RuleScanOracle oracle(table_, rules_);
  const std::size_t after_feature = table_.num_attrs() + 6;
  for (std::size_t r = 0; r < table_.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    for (std::size_t a = 0; a < table_.num_attrs(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      for (std::size_t v = 0; v < table_.DomainSize(attr); ++v) {
        const ValueId value = static_cast<ValueId>(v);
        const double probed =
            encoder.Encode(Update{row, attr, value, 0.5})[after_feature];
        EXPECT_EQ(probed, static_cast<double>(
                              oracle.HypotheticalViolatedRuleCount(row, attr,
                                                                   value)))
            << "row " << row << " attr " << attr << " value " << v;
        const ValueId old_value = index_->ApplyCellChange(row, attr, value);
        const std::int64_t actual = index_->ViolatedRuleCount(row);
        index_->ApplyCellChange(row, attr, old_value);
        EXPECT_EQ(probed, static_cast<double>(actual))
            << "row " << row << " attr " << attr << " value " << v;
      }
    }
  }
}

// Property test: after a random walk of cell changes, the incrementally
// maintained index agrees with an index rebuilt from scratch.
class IncrementalConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalConsistencyTest, MatchesRebuild) {
  Schema schema = *Schema::Make({"STR", "CT", "STT", "ZIP"});
  Table table(schema);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd"};
  const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
  const char* zips[] = {"46825", "46391", "46360", "46802"};
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({streets[rng.NextBounded(3)],
                                cities[rng.NextBounded(3)], "IN",
                                zips[rng.NextBounded(4)]})
                    .ok());
  }
  RuleSet rules(schema);
  ASSERT_TRUE(rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City")
                  .ok());
  ASSERT_TRUE(rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville").ok());
  ASSERT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
  ASSERT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());

  ViolationIndex incremental(&table, &rules);
  for (int step = 0; step < 200; ++step) {
    const RowId row = static_cast<RowId>(rng.NextBounded(table.num_rows()));
    const AttrId attr = static_cast<AttrId>(rng.NextBounded(4));
    const ValueId value =
        static_cast<ValueId>(rng.NextBounded(table.DomainSize(attr)));
    incremental.ApplyCellChange(row, attr, value);
  }

  Table snapshot = table;
  ViolationIndex rebuilt(&snapshot, &rules);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleId rule = static_cast<RuleId>(i);
    EXPECT_EQ(incremental.RuleViolations(rule), rebuilt.RuleViolations(rule));
    EXPECT_EQ(incremental.ViolatingCount(rule), rebuilt.ViolatingCount(rule));
    EXPECT_EQ(incremental.ContextCount(rule), rebuilt.ContextCount(rule));
    EXPECT_EQ(incremental.SatisfyingCount(rule),
              rebuilt.SatisfyingCount(rule));
  }
  EXPECT_EQ(incremental.DirtyRows(), rebuilt.DirtyRows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      EXPECT_EQ(
          incremental.TupleViolation(static_cast<RowId>(r),
                                     static_cast<RuleId>(i)),
          rebuilt.TupleViolation(static_cast<RowId>(r),
                                 static_cast<RuleId>(i)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalConsistencyTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace gdr
