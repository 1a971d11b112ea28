// End-to-end fidelity test on the paper's Figure 1 scenario: a scripted
// ground-truth user plus GDR-NoLearning must drive the Customer instance
// to exactly the true database with zero residual violations.
#include <gtest/gtest.h>

#include "core/session.h"
#include "sim/oracle.h"

namespace gdr {
namespace {

class Figure1EndToEnd : public ::testing::Test {
 protected:
  Figure1EndToEnd()
      : schema_(*Schema::Make({"Name", "SRC", "STR", "CT", "STT", "ZIP"})),
        truth_(schema_),
        dirty_(schema_),
        rules_(schema_) {
    auto add = [this](const char* n, const char* s, const char* st,
                      const char* ct, const char* stt, const char* z) {
      EXPECT_TRUE(truth_.AppendRow({n, s, st, ct, stt, z}).ok());
    };
    add("Ann", "H1", "Sherden Rd", "Fort Wayne", "IN", "46825");
    add("Bob", "H1", "Sherden Rd", "Fort Wayne", "IN", "46825");
    add("Cal", "H2", "Oak Ave", "Michigan City", "IN", "46360");
    add("Dee", "H2", "Oak Ave", "Michigan City", "IN", "46360");
    add("Eve", "H3", "Main St", "New Haven", "IN", "46774");
    add("Fay", "H4", "Main St", "Westville", "IN", "46391");

    dirty_ = truth_;
    dirty_.Set(1, 5, "46391");         // boundary-zip confusion
    dirty_.Set(2, 3, "Michigan Cty");  // city typos (source H2)
    dirty_.Set(3, 3, "Michigan Cty");
    dirty_.Set(4, 4, "IND");           // state spelled out

    EXPECT_TRUE(rules_
                    .AddRuleFromString(
                        "phi1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
                    .ok());
    EXPECT_TRUE(
        rules_.AddRuleFromString("phi2", "ZIP=46774 -> CT=New Haven ; STT=IN")
            .ok());
    EXPECT_TRUE(
        rules_.AddRuleFromString("phi3", "ZIP=46825 -> CT=Fort Wayne ; STT=IN")
            .ok());
    EXPECT_TRUE(
        rules_.AddRuleFromString("phi4", "ZIP=46391 -> CT=Westville ; STT=IN")
            .ok());
    EXPECT_TRUE(
        rules_.AddRuleFromString("phi5", "STR, CT=Fort Wayne -> ZIP").ok());
  }

  Schema schema_;
  Table truth_;
  Table dirty_;
  RuleSet rules_;
};

TEST_F(Figure1EndToEnd, AllTuplesInitiallyViolate) {
  // "Note that all the tuples in Figure 1 have violations" — in our
  // instance every row except the clean Westville one conflicts somehow,
  // and Westville shares no group with the wrong-zip tuple.
  ViolationIndex index(&dirty_, &rules_);
  EXPECT_GE(index.DirtyRows().size(), 4u);
}

TEST_F(Figure1EndToEnd, RepairsToExactGroundTruth) {
  Table working = dirty_;
  UserOracle oracle(&truth_);
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  GdrSession session(&working, &rules_, options);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(PumpSession(&session, &oracle).ok());

  EXPECT_EQ(session.engine().index().TotalViolations(), 0);
  auto diff = working.CountDifferingCells(truth_);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(*diff, 0u);
}

TEST_F(Figure1EndToEnd, GroupingMatchesNarrative) {
  // Section 1.1: one group suggests CT := 'Michigan City' (t2, t3 here);
  // grouping is by (attribute, suggested value).
  Table working = dirty_;
  GdrEngine engine(&working, &rules_);
  ASSERT_TRUE(engine.Initialize().ok());
  const std::vector<UpdateGroup> groups = GroupUpdates(engine.pool());
  const AttrId ct = schema_.FindAttr("CT");
  bool found = false;
  for (const UpdateGroup& group : groups) {
    if (group.attr != ct) continue;
    if (working.dict(ct).ToString(group.value) == "Michigan City") {
      EXPECT_EQ(group.size(), 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(Figure1EndToEnd, ConsultingUserCostsAtMostPoolSize) {
  Table working = dirty_;
  UserOracle oracle(&truth_);
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  GdrSession session(&working, &rules_, options);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(PumpSession(&session, &oracle).ok());
  // Every user answer concerned a distinct suggested update; rejects can
  // trigger replacements, so the bound is loose but must stay small.
  EXPECT_LE(session.stats().user_feedback, 24u);
  EXPECT_GE(session.stats().user_confirms, 4u);  // the four seeded errors
}

}  // namespace
}  // namespace gdr
