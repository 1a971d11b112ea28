#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cfd/violation_index.h"
#include "core/voi.h"
#include "testing/voi_oracle.h"
#include "util/rng.h"

namespace gdr {
namespace {

// Churn fixture: a randomized table plus a rule mix (constant + variable)
// in the style of the Figure-1 schema.
struct RandomInstance {
  RandomInstance(std::uint64_t seed, int rows)
      : schema(*Schema::Make({"STR", "CT", "STT", "ZIP"})),
        table(schema),
        rules(schema) {
    Rng rng(seed);
    const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd"};
    const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
    const char* states[] = {"IN", "IND"};
    const char* zips[] = {"46825", "46391", "46360", "46802"};
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(table
                      .AppendRow({streets[rng.NextBounded(3)],
                                  cities[rng.NextBounded(3)],
                                  states[rng.NextBounded(2)],
                                  zips[rng.NextBounded(4)]})
                      .ok());
    }
    EXPECT_TRUE(
        rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
            .ok());
    EXPECT_TRUE(rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville")
                    .ok());
    EXPECT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
    EXPECT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());
  }

  Schema schema;
  Table table;
  RuleSet rules;
};

// The hypothetical-evaluation property: while the base index takes a
// random walk of real cell changes, every random single-cell hypothetical
// scores exactly as the brute-force oracle over the current table — both
// through a batch kept alive across the walk (whose staging must follow
// the base's version) and through a freshly staged one — and each staged
// rule's probe reports the rebuilt copy's violation-count change and
// satisfying count. Scoring never mutates the base.
class HypotheticalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HypotheticalPropertyTest, RandomWalkMatchesBruteForce) {
  voi_testing::RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  ViolationIndex& index = *inst.index;
  const VoiRanker ranker(&index, &inst.weights);
  HypotheticalBatch kept(&index);

  for (int step = 0; step < 60; ++step) {
    for (int probe = 0; probe < 4; ++probe) {
      const Update update = inst.RandomUpdate();
      const double expected = voi_testing::BruteForceBenefit(
          inst.table, inst.rules, inst.weights, update);
      EXPECT_EQ(ranker.UpdateBenefit(update, &kept), expected)
          << "step " << step;
      EXPECT_EQ(ranker.UpdateBenefit(update), expected) << "step " << step;

      HypotheticalBatch batch(&index);
      batch.Stage(update.attr, update.value);
      if (batch.IsNoOp(update.row)) continue;
      Table written = inst.table;
      written.SetById(update.row, update.attr, update.value);
      const ViolationIndex rebuilt(&written, &inst.rules);
      for (std::size_t k = 0; k < batch.num_affected(); ++k) {
        const RuleId rule = batch.affected_rule(k);
        const HypotheticalBatch::Effect effect = batch.Probe(k, update.row);
        EXPECT_EQ(effect.adjustment,
                  rebuilt.RuleViolations(rule) - index.RuleViolations(rule))
            << "step " << step << " rule " << rule;
        EXPECT_EQ(effect.satisfying, rebuilt.SatisfyingCount(rule))
            << "step " << step << " rule " << rule;
      }
    }
    const Table before = inst.table;
    const std::int64_t total = index.TotalViolations();
    ranker.Rank(inst.groups, voi_testing::Probability);
    EXPECT_EQ(index.TotalViolations(), total);
    EXPECT_EQ(*inst.table.CountDifferingCells(before), 0u);

    const Update change = inst.RandomUpdate();
    index.ApplyCellChange(change.row, change.attr, change.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypotheticalPropertyTest,
                         ::testing::Range(1, 11));

// Asserts that the incrementally maintained `index` answers every query
// exactly as an index rebuilt from scratch over the same table — including
// the group-shaped queries that ride on the dense GroupId storage.
void ExpectIndexMatchesRebuild(const ViolationIndex& index, Table expected,
                               const RuleSet& rules) {
  ViolationIndex rebuilt(&expected, &rules);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleId rule = static_cast<RuleId>(i);
    EXPECT_EQ(index.RuleViolations(rule), rebuilt.RuleViolations(rule));
    EXPECT_EQ(index.ViolatingCount(rule), rebuilt.ViolatingCount(rule));
    EXPECT_EQ(index.ContextCount(rule), rebuilt.ContextCount(rule));
    EXPECT_EQ(index.SatisfyingCount(rule), rebuilt.SatisfyingCount(rule));
    // Interned GroupIds are an implementation detail, but the *number* of
    // live groups is observable and must match a fresh build (a free-list
    // slot aliasing a live group would break it, as would a leaked slot
    // still counted live).
    EXPECT_EQ(index.GroupStorage(rule).live_groups(),
              rebuilt.GroupStorage(rule).slots)
        << "rule " << i;
  }
  EXPECT_EQ(index.TotalViolations(), rebuilt.TotalViolations());
  EXPECT_EQ(index.DirtyRows(), rebuilt.DirtyRows());
  for (std::size_t r = 0; r < expected.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const RuleId rule = static_cast<RuleId>(i);
      EXPECT_EQ(index.TupleViolation(row, rule),
                rebuilt.TupleViolation(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.GroupTotal(row, rule), rebuilt.GroupTotal(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.GroupMembers(row, rule),
                rebuilt.GroupMembers(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.ViolationPartners(row, rule),
                rebuilt.ViolationPartners(row, rule))
          << "row " << r << " rule " << i;
    }
  }
}

// GroupId-recycling adversary: random ApplyCellChange sequences that
// repeatedly empty and re-create LHS groups. Free-list reuse must never
// alias a live group — verified by demanding every group-shaped query
// match a from-scratch rebuild at every checkpoint.
class GroupRecyclingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupRecyclingPropertyTest, RandomChurnMatchesRebuild) {
  RandomInstance inst(static_cast<std::uint64_t>(GetParam()) ^ 0xC0FFEEULL,
                      40);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);

  ViolationIndex index(&inst.table, &inst.rules);
  for (int step = 0; step < 200; ++step) {
    const RowId row = static_cast<RowId>(rng.NextBounded(40));
    const AttrId attr =
        static_cast<AttrId>(rng.NextBounded(inst.table.num_attrs()));
    // Biasing toward a small value set maximizes group empty/recreate
    // churn: rows chase each other through the same handful of keys.
    const ValueId value = static_cast<ValueId>(
        rng.NextBounded(rng.NextBounded(4) == 0
                            ? inst.table.DomainSize(attr)
                            : std::min<std::size_t>(
                                  2, inst.table.DomainSize(attr))));
    index.ApplyCellChange(row, attr, value);
    if (step % 20 == 19) {
      ExpectIndexMatchesRebuild(index, inst.table, inst.rules);
    }
  }
  ExpectIndexMatchesRebuild(index, inst.table, inst.rules);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupRecyclingPropertyTest,
                         ::testing::Range(1, 9));

TEST(GroupRecyclingTest, FreeListReusesSlotsInsteadOfGrowing) {
  // A singleton group is created and destroyed on every toggle of row 0's
  // STR value; after the first round trip the dense storage must recycle
  // the retired slot rather than grow, and the sibling groups' aggregates
  // must be unaffected (no aliasing through the free list).
  RandomInstance inst(4242, 30);
  ViolationIndex index(&inst.table, &inst.rules);
  const RuleId v1 = 3;  // "STR, CT -> ZIP" in RandomInstance's rule order
  ASSERT_TRUE(inst.rules.rule(v1).IsVariable());

  const AttrId str = 0;
  const ValueId fresh_a = inst.table.InternValue(str, "Churn Alley A");
  const ValueId fresh_b = inst.table.InternValue(str, "Churn Alley B");
  const ValueId original = inst.table.id_at(0, str);

  // Warm up: one full toggle creates (then retires) both fresh groups.
  index.ApplyCellChange(0, str, fresh_a);
  index.ApplyCellChange(0, str, fresh_b);
  index.ApplyCellChange(0, str, original);
  const auto warm = index.GroupStorage(v1);
  EXPECT_GT(warm.free_slots, 0u);

  for (int i = 0; i < 25; ++i) {
    index.ApplyCellChange(0, str, i % 2 == 0 ? fresh_a : fresh_b);
    index.ApplyCellChange(0, str, original);
    const auto storage = index.GroupStorage(v1);
    EXPECT_EQ(storage.slots, warm.slots) << "iteration " << i;
    EXPECT_EQ(storage.live_groups(), warm.live_groups()) << "iteration " << i;
  }
  ExpectIndexMatchesRebuild(index, inst.table, inst.rules);
}

}  // namespace
}  // namespace gdr
