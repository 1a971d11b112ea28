// Differential suite for rule dispatch: the violation index visits only
// the rules ForEachCandidateRule yields for a row (variable rules and
// unanchored constant rules, plus the constant rules anchored on the row's
// values or on the written value), never all of Σ. Seeded random walks of
// cell changes, appends carrying new values and apply-then-revert pairs
// run over Dataset 1, Dataset 2 and a hand-built rule set. After every
// step each dispatched query must equal the all-rules scan of
// tests/testing/rule_scan_oracle.h — ViolatedRuleCount, ViolatedRules,
// IsDirty, and over every row × attribute × value (sampled values on the
// generated datasets) UpdateBenefit bit for bit and the learner encoder's
// violations_now / violations_after, which it derives from the staged
// probe — the candidate lists must be ascending and cover every rule whose
// context can hold, and the index aggregates must equal a rebuild over the
// same table.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cfd/violation_index.h"
#include "core/learner_bank.h"
#include "core/voi.h"
#include "sim/dataset1.h"
#include "sim/dataset2.h"
#include "testing/rule_scan_oracle.h"
#include "util/rng.h"

namespace gdr {
namespace {

using rule_scan_testing::RuleScanOracle;
using rule_scan_testing::ScanBenefit;

// The rules ForEachCandidateRule yields; fails the test unless they are
// strictly ascending and include every rule whose context holds at `row`
// now or with (attr := value).
std::vector<RuleId> CheckedCandidates(const ViolationIndex& index,
                                      const RuleScanOracle& oracle, RowId row,
                                      AttrId attr, ValueId value) {
  std::vector<RuleId> candidates;
  index.ForEachCandidateRule(row, attr, value,
                             [&](RuleId rule) { candidates.push_back(rule); });
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(candidates[i - 1], candidates[i]) << "row " << row;
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < index.rules().size(); ++i) {
    const RuleId rule = static_cast<RuleId>(i);
    while (next < candidates.size() && candidates[next] < rule) ++next;
    const bool emitted = next < candidates.size() && candidates[next] == rule;
    const bool can_hold = oracle.ContextHolds(row, rule) ||
                          (attr != kInvalidAttrId &&
                           oracle.ContextHolds(row, rule, attr, value));
    if (can_hold) {
      EXPECT_TRUE(emitted) << "row " << row << " attr " << attr << " value "
                           << value << " misses rule " << rule;
    }
  }
  return candidates;
}

// Every aggregate and per-(row, rule) reading of `index` equals a fresh
// build over a copy of its table.
void ExpectMatchesRebuild(const ViolationIndex& index) {
  const RuleSet& rules = index.rules();
  Table copy = index.table();
  const ViolationIndex rebuilt(&copy, &rules);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleId rule = static_cast<RuleId>(i);
    ASSERT_EQ(index.RuleViolations(rule), rebuilt.RuleViolations(rule)) << i;
    ASSERT_EQ(index.ViolatingCount(rule), rebuilt.ViolatingCount(rule)) << i;
    ASSERT_EQ(index.ContextCount(rule), rebuilt.ContextCount(rule)) << i;
    ASSERT_EQ(index.GroupStorage(rule).live_groups(),
              rebuilt.GroupStorage(rule).slots)
        << i;
    for (std::size_t r = 0; r < copy.num_rows(); ++r) {
      const RowId row = static_cast<RowId>(r);
      ASSERT_EQ(index.TupleViolation(row, rule),
                rebuilt.TupleViolation(row, rule))
          << "row " << r << " rule " << i;
      ASSERT_EQ(index.GroupMembers(row, rule), rebuilt.GroupMembers(row, rule))
          << "row " << r << " rule " << i;
    }
  }
  ASSERT_EQ(index.DirtyRows(), rebuilt.DirtyRows());
}

// `samples` asking for every value of the attribute's domain.
constexpr int kEveryValue = -1;

// Dispatched queries against the all-rules scan, for every row; the
// hypothetical ones for every attribute in `attrs` at the row's own value
// (a no-op write) plus `samples` values drawn from the attribute's domain
// (rule constants, data values and values only ever written by the walk
// alike), or plus every value of it.
void ExpectMatchesScan(const ViolationIndex& index,
                       const std::vector<double>& weights,
                       const std::vector<AttrId>& attrs, int samples,
                       Rng* rng) {
  const Table& table = index.table();
  const RuleScanOracle oracle(table, index.rules());
  const VoiRanker ranker(&index, &weights);
  const LearnerBank encoder(&table, &index);
  const std::size_t now_feature = table.num_attrs() + 5;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    CheckedCandidates(index, oracle, row, kInvalidAttrId, kInvalidValueId);
    ASSERT_EQ(index.ViolatedRules(row), oracle.ViolatedRules(row))
        << "row " << r;
    ASSERT_EQ(index.ViolatedRuleCount(row), oracle.ViolatedRuleCount(row))
        << "row " << r;
    ASSERT_EQ(index.IsDirty(row), oracle.IsDirty(row)) << "row " << r;
    for (const AttrId attr : attrs) {
      std::vector<ValueId> values = {table.id_at(row, attr)};
      if (samples == kEveryValue) {
        for (std::size_t v = 0; v < table.DomainSize(attr); ++v) {
          values.push_back(static_cast<ValueId>(v));
        }
      }
      for (int s = 0; s < samples; ++s) {
        values.push_back(
            static_cast<ValueId>(rng->NextBounded(table.DomainSize(attr))));
      }
      for (const ValueId value : values) {
        CheckedCandidates(index, oracle, row, attr, value);
        const Update update{row, attr, value, 0.5};
        const std::vector<double> features = encoder.Encode(update);
        ASSERT_EQ(features[now_feature],
                  static_cast<double>(oracle.ViolatedRuleCount(row)))
            << "row " << r << " attr " << attr << " value " << value;
        ASSERT_EQ(features[now_feature + 1],
                  static_cast<double>(
                      oracle.HypotheticalViolatedRuleCount(row, attr, value)))
            << "row " << r << " attr " << attr << " value " << value;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ranker.UpdateBenefit(update)),
                  std::bit_cast<std::uint64_t>(
                      ScanBenefit(index, weights, update)))
            << "row " << r << " attr " << attr << " value " << value;
      }
    }
  }
}

// One seeded walk. `value_for(attr, rng)` draws a replacement cell value,
// `row_for(rng)` a row to append; both sometimes return values the table
// has never held.
template <typename ValueFn, typename RowFn>
void RandomWalk(Table* table, const RuleSet& rules,
                const std::vector<AttrId>& attrs, std::uint64_t seed,
                int steps, int samples, ValueFn value_for, RowFn row_for) {
  ViolationIndex index(table, &rules);
  Rng rng(seed);
  std::vector<double> weights(rules.size());
  for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesScan(index, weights, attrs, samples,
                                            &rng));
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const RowId row = static_cast<RowId>(rng.NextBounded(table->num_rows()));
    const AttrId attr = attrs[rng.NextBounded(attrs.size())];
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        index.ApplyCellChange(row, attr,
                              std::string_view(value_for(attr, &rng)));
        break;
      case 2: {
        std::vector<std::vector<std::string>> batch;
        const std::size_t n = 1 + rng.NextBounded(3);
        for (std::size_t i = 0; i < n; ++i) batch.push_back(row_for(&rng));
        if (n == 1) {
          ASSERT_TRUE(index.AppendRow(batch.front()).ok());
        } else {
          ASSERT_TRUE(index.AppendRows(batch).ok());
        }
        break;
      }
      case 3: {
        const ValueId old = index.ApplyCellChange(
            row, attr, std::string_view(value_for(attr, &rng)));
        index.ApplyCellChange(row, attr, old);
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesRebuild(index));
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesScan(index, weights, attrs, samples,
                                              &rng));
  }
}

// Value and row drawers over a generated dataset: values come from other
// rows of the source, or one time in eight are fresh.
struct SourceDraws {
  const Table* source;
  int fresh = 0;

  std::string Value(AttrId attr, Rng* rng) {
    if (rng->NextBounded(8) == 0) return "fresh" + std::to_string(fresh++);
    return source->at(
        static_cast<RowId>(rng->NextBounded(source->num_rows())), attr);
  }

  std::vector<std::string> Row(Rng* rng) {
    const RowId from =
        static_cast<RowId>(rng->NextBounded(source->num_rows()));
    std::vector<std::string> row;
    for (std::size_t a = 0; a < source->num_attrs(); ++a) {
      row.push_back(rng->NextBounded(8) == 0
                        ? "fresh" + std::to_string(fresh++)
                        : source->at(from, static_cast<AttrId>(a)));
    }
    return row;
  }
};

// ---------------------------------------------------------------------------
// Hand-built rule set: every dispatch shape.
// ---------------------------------------------------------------------------

Schema HandSchema() { return *Schema::Make({"A", "B", "C", "D", "E"}); }

RuleSet HandRules() {
  RuleSet rules(HandSchema());
  // Several LHS constants: anchored on A=a1, context also needs B=b1.
  EXPECT_TRUE(rules.AddRuleFromString("multi", "A=a1, B=b1 -> C=c1").ok());
  // Constant rule with only wildcard LHS: visited for every row.
  EXPECT_TRUE(rules.AddRuleFromString("wild", "A, B -> D=d0").ok());
  // Variable rule with an LHS constant: visited for every row.
  EXPECT_TRUE(rules.AddRuleFromString("varc", "A=a0, B -> C").ok());
  // First LHS cell a wildcard: anchored on C=c2.
  EXPECT_TRUE(rules.AddRuleFromString("second", "B, C=c2 -> D=d1").ok());
  // Rule constants absent from the data, on the A anchor and the RHS.
  EXPECT_TRUE(rules.AddRuleFromString("absent", "A=zz -> E=e9").ok());
  // Two rules on one anchor value, one of them anchored on the attribute
  // the other writes.
  EXPECT_TRUE(rules.AddRuleFromString("pair", "A=a2 -> B=b0 ; E=e1").ok());
  EXPECT_TRUE(rules.AddRuleFromString("onc", "C=c1 -> A=a1").ok());
  EXPECT_TRUE(rules.AddRuleFromString("fd", "D -> E").ok());
  return rules;
}

std::string HandValue(AttrId attr, Rng* rng) {
  static const char* const kPrefix[] = {"a", "b", "c", "d", "e"};
  // Index 4 is one past the rows' domain: a value no row started with.
  return kPrefix[attr] + std::to_string(rng->NextBounded(5));
}

std::vector<std::string> HandRow(Rng* rng) {
  std::vector<std::string> row;
  for (AttrId a = 0; a < 5; ++a) {
    row.push_back(std::string(1, static_cast<char>('a' + a)) +
                  std::to_string(rng->NextBounded(4)));
  }
  return row;
}

Table HandTable(std::uint64_t seed) {
  Table table(HandSchema());
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(table.AppendRow(HandRow(&rng)).ok());
  return table;
}

// The dispatch shape itself: which rules a row visits, by anchor.
TEST(RuleDispatchDifferentialTest, CandidatesFollowAnchors) {
  const RuleSet rules = HandRules();
  Table table(HandSchema());
  ASSERT_TRUE(table.AppendRow({"a3", "b0", "c3", "d0", "e0"}).ok());
  ASSERT_TRUE(table.AppendRow({"a1", "b0", "c1", "d0", "e0"}).ok());
  const ViolationIndex index(&table, &rules);
  const auto candidates = [&index](RowId row, AttrId attr,
                                   std::string_view value) {
    const ValueId id = attr == kInvalidAttrId
                           ? kInvalidValueId
                           : index.table().dict(attr).Lookup(value);
    std::vector<RuleId> out;
    index.ForEachCandidateRule(row, attr, id,
                               [&out](RuleId rule) { out.push_back(rule); });
    return out;
  };
  // Rule ids: multi 0, wild 1, varc 2, second 3, absent 4, pair.1 5,
  // pair.2 6, onc 7, fd 8. Always visited: wild, varc, fd.
  const AttrId a = 0, c = 2;
  EXPECT_EQ(candidates(0, kInvalidAttrId, ""), (std::vector<RuleId>{1, 2, 8}));
  EXPECT_EQ(candidates(0, a, "a2"), (std::vector<RuleId>{1, 2, 5, 6, 8}));
  EXPECT_EQ(candidates(0, c, "c2"), (std::vector<RuleId>{1, 2, 3, 8}));
  // "zz" appears in no row; the constructor interned it for "absent".
  EXPECT_EQ(candidates(0, a, "zz"), (std::vector<RuleId>{1, 2, 4, 8}));
  EXPECT_EQ(candidates(1, kInvalidAttrId, ""),
            (std::vector<RuleId>{0, 1, 2, 7, 8}));
  EXPECT_EQ(candidates(1, a, "a2"), (std::vector<RuleId>{0, 1, 2, 5, 6, 7, 8}));
  // A value interned after construction anchors nothing.
  const ValueId late = table.InternValue(a, "a9");
  std::vector<RuleId> out;
  index.ForEachCandidateRule(0, a, late,
                             [&out](RuleId rule) { out.push_back(rule); });
  EXPECT_EQ(out, (std::vector<RuleId>{1, 2, 8}));
}

TEST(RuleDispatchDifferentialTest, HandBuiltRandomWalks) {
  const RuleSet rules = HandRules();
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = HandTable(seed);
    RandomWalk(&table, rules, {0, 1, 2, 3, 4}, seed, /*steps=*/60,
               kEveryValue, HandValue, HandRow);
  }
}

TEST(RuleDispatchDifferentialTest, Dataset1RandomWalks) {
  const Dataset dataset = *GenerateDataset1({.num_records = 120, .seed = 5});
  const Schema& schema = dataset.dirty.schema();
  // The four rule attributes (Zip is the anchor) plus one no rule reads.
  const std::vector<AttrId> attrs = {
      schema.FindAttr("StreetAddress"), schema.FindAttr("City"),
      schema.FindAttr("Zip"), schema.FindAttr("State"),
      schema.FindAttr("HospitalName")};
  for (std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = dataset.dirty;
    SourceDraws draws{&dataset.dirty};
    RandomWalk(
        &table, dataset.rules, attrs, seed, /*steps=*/25, /*samples=*/2,
        [&](AttrId attr, Rng* rng) { return draws.Value(attr, rng); },
        [&](Rng* rng) { return draws.Row(rng); });
  }
}

TEST(RuleDispatchDifferentialTest, Dataset2RandomWalks) {
  Dataset2Options options;
  options.num_records = 150;
  options.seed = 3;
  const Dataset dataset = *GenerateDataset2(options);
  std::vector<AttrId> attrs;
  for (std::size_t a = 0; a < dataset.dirty.num_attrs(); ++a) {
    attrs.push_back(static_cast<AttrId>(a));
  }
  for (std::uint64_t seed : {9u, 10u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = dataset.dirty;
    SourceDraws draws{&dataset.dirty};
    RandomWalk(
        &table, dataset.rules, attrs, seed, /*steps=*/20, /*samples=*/2,
        [&](AttrId attr, Rng* rng) { return draws.Value(attr, rng); },
        [&](Rng* rng) { return draws.Row(rng); });
  }
}

}  // namespace
}  // namespace gdr
