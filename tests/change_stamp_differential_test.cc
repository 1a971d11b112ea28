// Differential suite for the violation index's change stamps. Seeded
// random walks (tests/testing/index_walk.h) mutate the index; a pool of
// sampled hypothetical writes keeps, for each sample, what
// HypotheticalBatch::Probe answered for every affected rule (adjustment,
// d_sat and the groups it read) together with the index version at the
// time. After every step, a sample none of whose read stamps — the row's,
// and each reported group's (or the rule's key epoch for an absent key) —
// has moved past that version must probe to the same integers again;
// samples whose stamps moved are re-recorded.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cfd/violation_index.h"
#include "testing/index_walk.h"
#include "util/rng.h"

namespace gdr {
namespace {

using walk_testing::Walk;

struct Sample {
  Update update;
  std::uint64_t version = 0;
  bool no_op = false;
  std::vector<RuleId> rules;
  std::vector<HypotheticalBatch::Effect> effects;
};

Sample Record(const ViolationIndex& index, const Update& update) {
  Sample sample;
  sample.update = update;
  sample.version = index.version();
  HypotheticalBatch batch(&index);
  batch.Stage(update.attr, update.value);
  sample.no_op = batch.IsNoOp(update.row);
  if (sample.no_op) return sample;
  for (std::size_t k = 0; k < batch.num_affected(); ++k) {
    const RuleId rule = batch.affected_rule(k);
    const HypotheticalBatch::Effect effect = batch.Probe(k, update.row);
    // The reported reads are the row's group and a hypothetical key's.
    EXPECT_EQ(effect.own_group, index.GroupIdOf(update.row, rule));
    EXPECT_EQ(effect.satisfying, index.SatisfyingCount(rule) + effect.d_sat);
    sample.rules.push_back(rule);
    sample.effects.push_back(effect);
  }
  return sample;
}

// True when a stamp the sample read has moved since it was recorded.
bool Moved(const ViolationIndex& index, const Sample& sample) {
  if (index.RowStamp(sample.update.row) > sample.version) return true;
  for (std::size_t k = 0; k < sample.effects.size(); ++k) {
    for (const GroupId read :
         {sample.effects[k].own_group, sample.effects[k].key_group}) {
      if (read != kNoGroup &&
          index.GroupStamp(sample.rules[k], read) > sample.version) {
        return true;
      }
    }
  }
  return false;
}

struct Tally {
  int unmoved = 0;  // samples re-probed with every read stamp in place
  int absent_keys = 0;  // of those, ones that had read an absent key
};

void ExpectSameProbe(const Sample& then, const Sample& now, Tally* tally) {
  ++tally->unmoved;
  ASSERT_EQ(then.no_op, now.no_op);
  ASSERT_EQ(then.effects.size(), now.effects.size());
  bool absent = false;
  for (std::size_t k = 0; k < then.effects.size(); ++k) {
    const HypotheticalBatch::Effect& a = then.effects[k];
    const HypotheticalBatch::Effect& b = now.effects[k];
    SCOPED_TRACE("rule " + std::to_string(then.rules[k]));
    EXPECT_EQ(a.adjustment, b.adjustment);
    EXPECT_EQ(a.d_sat, b.d_sat);
    EXPECT_EQ(a.own_group, b.own_group);
    EXPECT_EQ(a.key_group, b.key_group);
    EXPECT_EQ(a.violates_after, b.violates_after);
    absent = absent || a.key_group == kAbsentGroup;
  }
  if (absent) ++tally->absent_keys;
}

Tally RunWalk(Walk walk, std::uint64_t seed, int steps) {
  ViolationIndex index(&walk.table, &walk.rules());
  Rng rng(seed);
  constexpr std::size_t kSamples = 64;
  std::vector<Sample> samples;
  for (std::size_t i = 0; i < kSamples; ++i) {
    samples.push_back(
        Record(index, walk_testing::RandomHypothetical(walk, walk.table, &rng)));
  }
  Tally tally;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(walk.name + " seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    walk_testing::Step(walk, &index, &rng);
    if (::testing::Test::HasFatalFailure()) return tally;
    for (Sample& sample : samples) {
      const Sample now = Record(index, sample.update);
      if (!Moved(index, sample)) {
        SCOPED_TRACE("row " + std::to_string(sample.update.row) + " attr " +
                     std::to_string(sample.update.attr) + " value " +
                     std::to_string(sample.update.value));
        ExpectSameProbe(sample, now, &tally);
        if (::testing::Test::HasFailure()) return tally;
      } else {
        sample = now;
      }
    }
    // Churn: a few samples make way for fresh ones.
    for (int i = 0; i < 4; ++i) {
      samples[rng.NextBounded(samples.size())] = Record(
          index, walk_testing::RandomHypothetical(walk, walk.table, &rng));
    }
  }
  return tally;
}

TEST(ChangeStampDifferentialTest, HandBuiltRandomWalks) {
  Tally total;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Tally tally = RunWalk(walk_testing::HandWalk(seed), seed, 80);
    total.unmoved += tally.unmoved;
    total.absent_keys += tally.absent_keys;
  }
  // The walks exercise both reuse and absent hypothetical keys.
  EXPECT_GT(total.unmoved, 1000);
  EXPECT_GT(total.absent_keys, 100);
}

TEST(ChangeStampDifferentialTest, Dataset1RandomWalks) {
  for (std::uint64_t seed : {7u, 8u}) {
    const Tally tally = RunWalk(walk_testing::Dataset1Walk(), seed, 40);
    EXPECT_GT(tally.unmoved, 100);
  }
}

TEST(ChangeStampDifferentialTest, Dataset2RandomWalks) {
  for (std::uint64_t seed : {9u, 10u}) {
    const Tally tally = RunWalk(walk_testing::Dataset2Walk(), seed, 40);
    EXPECT_GT(tally.unmoved, 100);
  }
}

// Each mutation moves exactly the stamps of what it changes: the written
// row's and its groups' (old and new), not an unrelated row's.
TEST(ChangeStampDifferentialTest, MutationsStampWhatTheyMove) {
  Walk walk = walk_testing::HandWalk(11);
  ViolationIndex index(&walk.table, &walk.rules());
  const RuleId ab_c = 0;  // "A, B -> C"
  const std::uint64_t before = index.version();
  const RowId row = 0;
  const GroupId old_group = index.GroupIdOf(row, ab_c);
  ASSERT_NE(old_group, kNoGroup);
  const std::uint64_t epoch = index.GroupStamp(ab_c, kAbsentGroup);

  // A value no row holds moves the row into a new key: the row, its old
  // group and the key epoch move; another row's stamp does not.
  index.ApplyCellChange(row, 0, std::string_view("a_new"));
  EXPECT_EQ(index.version(), before + 1);
  EXPECT_EQ(index.RowStamp(row), index.version());
  EXPECT_EQ(index.RowStamp(1), before);
  EXPECT_EQ(index.GroupStamp(ab_c, old_group), index.version());
  EXPECT_EQ(index.GroupStamp(ab_c, index.GroupIdOf(row, ab_c)),
            index.version());
  EXPECT_GT(index.GroupStamp(ab_c, kAbsentGroup), epoch);

  // Writing a cell's own value is no change at all.
  const std::uint64_t now = index.version();
  index.ApplyCellChange(row, 0, std::string_view("a_new"));
  EXPECT_EQ(index.version(), now);
  EXPECT_EQ(index.RowStamp(row), now);

  // Appended rows carry their append's version.
  ASSERT_TRUE(index.AppendRows({{"a0", "b0", "c0", "d0", "e0"},
                                {"a1", "b1", "c1", "d1", "e1"}})
                  .ok());
  const RowId first = static_cast<RowId>(walk.table.num_rows()) - 2;
  EXPECT_EQ(index.RowStamp(first), index.version());
  EXPECT_EQ(index.RowStamp(first + 1), index.version());
  EXPECT_EQ(index.RowStamp(row), now);
}

}  // namespace
}  // namespace gdr
