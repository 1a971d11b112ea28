// Differential suite for the scenario-3 projection buckets the violation
// index maintains incrementally. Seeded random walks of cell changes,
// appends and apply-then-revert pairs run over the Dataset 1 analog and a
// hand-built table; after each step every (rule, LHS attribute) bucket of
// every row must equal a full-table rescan (tests/testing/
// projection_oracle.h) in values, counts and order, and at checkpoints the
// update generator must produce exactly the oracle generator's candidate
// for every cell.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cfd/violation_index.h"
#include "repair/repair_state.h"
#include "repair/update_generator.h"
#include "sim/dataset1.h"
#include "testing/projection_oracle.h"
#include "util/rng.h"

namespace gdr {
namespace {

using projection_testing::BuildOracleProjection;
using projection_testing::OracleGenerator;
using projection_testing::OracleProjection;

// Every (rule, B) pair scenario 3 can query: B ranges over the rule's LHS.
std::vector<std::pair<RuleId, AttrId>> LhsPairs(const RuleSet& rules) {
  std::vector<std::pair<RuleId, AttrId>> pairs;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (const PatternCell& cell : rules.rule(static_cast<RuleId>(i)).lhs()) {
      pairs.emplace_back(static_cast<RuleId>(i), cell.attr);
    }
  }
  return pairs;
}

void ExpectBucketsMatchOracle(
    ViolationIndex* index,
    const std::vector<std::pair<RuleId, AttrId>>& pairs) {
  const Table& table = index->table();
  for (const auto& [rule, attr] : pairs) {
    const OracleProjection oracle =
        BuildOracleProjection(table, index->rules().rule(rule), attr);
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      const RowId row = static_cast<RowId>(r);
      ASSERT_EQ(index->ProjectionBucket(rule, attr, row),
                oracle.Bucket(table, row))
          << "rule " << rule << " attr " << attr << " row " << r;
    }
  }
}

void ExpectGeneratorMatchesOracle(ViolationIndex* index, Table* table) {
  RepairState state;
  UpdateGenerator generator(index, table, &state);
  const OracleGenerator oracle(index, table, &state);
  for (std::size_t r = 0; r < table->num_rows(); ++r) {
    for (std::size_t a = 0; a < table->num_attrs(); ++a) {
      const RowId row = static_cast<RowId>(r);
      const AttrId attr = static_cast<AttrId>(a);
      const std::optional<Update> got =
          generator.UpdateAttributeTuple(row, attr);
      const std::optional<Update> want = oracle.UpdateAttributeTuple(row, attr);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "row " << r << " attr " << a;
      if (!got.has_value()) continue;
      EXPECT_EQ(got->value, want->value) << "row " << r << " attr " << a;
      EXPECT_EQ(got->score, want->score) << "row " << r << " attr " << a;
    }
  }
}

// One seeded walk. `value_for(attr, rng)` draws a replacement cell value,
// `row_for(rng)` a row to append. Buckets are compared after a random half
// of the steps, so some steps stack several unqueried changes onto one
// bucket; the generator comparison runs every `generator_every` steps.
template <typename ValueFn, typename RowFn>
void RandomWalk(Table* table, const RuleSet& rules,
                const std::vector<AttrId>& attrs, std::uint64_t seed,
                int steps, int generator_every, ValueFn value_for,
                RowFn row_for) {
  ViolationIndex index(table, &rules);
  const std::vector<std::pair<RuleId, AttrId>> pairs = LhsPairs(rules);
  Rng rng(seed);
  // Register half the projections up front; the rest register mid-walk,
  // after appends and changes have already happened.
  for (std::size_t i = 0; i < pairs.size(); i += 2) {
    index.ProjectionBucket(pairs[i].first, pairs[i].second, 0);
  }
  for (int step = 0; step < steps; ++step) {
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
        const std::size_t n = 1 + rng.NextBounded(4);
        for (std::size_t i = 0; i < n; ++i) batch.push_back(row_for(&rng));
        ASSERT_TRUE(index.AppendRows(batch).ok());
        break;
      }
      case 3: {
        // heuristic_repair's apply-and-revert shape.
        const ValueId old = index.ApplyCellChange(
            row, attr, std::string_view(value_for(attr, &rng)));
        index.ApplyCellChange(row, attr, old);
        break;
      }
    }
    if (rng.NextBounded(2) == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectBucketsMatchOracle(&index, pairs))
          << "step " << step;
    }
    if ((step + 1) % generator_every == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectGeneratorMatchesOracle(&index, table))
          << "step " << step;
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectBucketsMatchOracle(&index, pairs));
  ASSERT_NO_FATAL_FAILURE(ExpectGeneratorMatchesOracle(&index, table));
}

// ---------------------------------------------------------------------------
// Hand-built table: one bucket far past the 32-value cap.
// ---------------------------------------------------------------------------

Schema HandSchema() { return *Schema::Make({"A", "B", "C", "D"}); }

RuleSet HandRules() {
  RuleSet rules(HandSchema());
  EXPECT_TRUE(rules.AddRuleFromString("v1", "A, B -> C").ok());
  EXPECT_TRUE(rules.AddRuleFromString("c1", "B=b0 -> D=d0").ok());
  EXPECT_TRUE(rules.AddRuleFromString("c2", "B=b1 -> D=d1").ok());
  EXPECT_TRUE(rules.AddRuleFromString("v2", "C, D -> B").ok());
  return rules;
}

// Rows 0..59 share (B, C) = (b0, c0), so the (v1, A) projection has one
// bucket holding 45 distinct A values with repeats; rows 60..79 spread
// over the small domains outside that bucket (C ≠ c0).
Table HandTable() {
  Table table(HandSchema());
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(table
                    .AppendRow({"a" + std::to_string((i * 7) % 45), "b0",
                                "c0", "d" + std::to_string(i % 3)})
                    .ok());
  }
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(table
                    .AppendRow({"a" + std::to_string(rng.NextBounded(50)),
                                "b" + std::to_string(rng.NextBounded(3)),
                                "c" + std::to_string(1 + rng.NextBounded(2)),
                                "d" + std::to_string(rng.NextBounded(3))})
                    .ok());
  }
  return table;
}

std::string HandValue(AttrId attr, Rng* rng) {
  static const char* const kPrefix[] = {"a", "b", "c", "d"};
  const std::uint64_t domain = attr == 0 ? 50 : 3;
  return kPrefix[attr] + std::to_string(rng->NextBounded(domain));
}

TEST(ProjectionDifferentialTest, CapKeepsFirstOccurrenceOrder) {
  Table table = HandTable();
  const RuleSet rules = HandRules();
  ViolationIndex index(&table, &rules);
  const AttrId a = 0;
  const ViolationIndex::ProjectionValues& bucket =
      index.ProjectionBucket(0, a, 0);
  ASSERT_EQ(bucket.size(), ViolationIndex::kMaxValuesPerProjection);
  // Rows 0..31 hold a0, a7, a14, ... — 32 distinct values, so the list is
  // exactly those in row order, each counted over the whole bucket.
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    EXPECT_EQ(table.dict(a).ToString(bucket[i].first),
              "a" + std::to_string((i * 7) % 45))
        << i;
  }
  EXPECT_EQ(bucket[0].second, 2);  // a0 at rows 0 and 45

  // Moving row 0 out of the bucket shifts the window by one row: a0 now
  // first occurs at row 45, past the cap, and row 32's a44 comes in.
  // Moving it back restores the original list.
  const ViolationIndex::ProjectionValues before = bucket;
  index.ApplyCellChange(0, 2, std::string_view("c1"));
  const ViolationIndex::ProjectionValues& moved =
      index.ProjectionBucket(0, a, 1);
  ASSERT_EQ(moved.size(), ViolationIndex::kMaxValuesPerProjection);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(table.dict(a).ToString(moved[i].first),
              "a" + std::to_string(((i + 1) * 7) % 45))
        << i;
  }
  EXPECT_EQ(moved[0].second, 2);     // a7 at rows 1 and 46
  EXPECT_EQ(moved.back().second, 1);  // a44 at row 32 only
  index.ApplyCellChange(0, 2, std::string_view("c0"));
  EXPECT_EQ(index.ProjectionBucket(0, a, 1), before);
}

TEST(ProjectionDifferentialTest, RulesWithOneAttributeSetShareAProjection) {
  Table table = HandTable();
  const RuleSet rules = HandRules();
  ViolationIndex index(&table, &rules);
  const AttrId b = 1;
  // c1 and c2 both key B's projection on {D}.
  index.ProjectionBucket(1, b, 0);
  index.ProjectionBucket(2, b, 0);
  EXPECT_EQ(index.num_projections(), 1u);
  // v2 (C, D → B) keys C's projection on {D, B}: a different one.
  index.ProjectionBucket(3, 2, 0);
  EXPECT_EQ(index.num_projections(), 2u);
}

TEST(ProjectionDifferentialTest, HandBuiltRandomWalks) {
  const RuleSet rules = HandRules();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Table table = HandTable();
    RandomWalk(
        &table, rules, {0, 1, 2, 3}, seed, /*steps=*/150,
        /*generator_every=*/25, HandValue,
        [](Rng* rng) -> std::vector<std::string> {
          return {HandValue(0, rng), HandValue(1, rng), HandValue(2, rng),
                  HandValue(3, rng)};
        });
  }
}

TEST(ProjectionDifferentialTest, Dataset1RandomWalks) {
  const Dataset dataset = *GenerateDataset1({.num_records = 200, .seed = 5});
  const Schema& schema = dataset.dirty.schema();
  const std::vector<AttrId> attrs = {
      schema.FindAttr("StreetAddress"), schema.FindAttr("City"),
      schema.FindAttr("Zip"), schema.FindAttr("State")};
  for (std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE(seed);
    Table table = dataset.dirty;
    const Table& source = dataset.dirty;
    // Replacement values come from other rows (so rows land in populated
    // buckets) or, one time in eight, are fresh.
    int fresh = 0;
    auto value_for = [&](AttrId attr, Rng* rng) -> std::string {
      if (rng->NextBounded(8) == 0) return "fresh" + std::to_string(fresh++);
      return source.at(static_cast<RowId>(rng->NextBounded(source.num_rows())),
                       attr);
    };
    auto row_for = [&](Rng* rng) {
      const RowId from =
          static_cast<RowId>(rng->NextBounded(source.num_rows()));
      std::vector<std::string> row;
      for (std::size_t a = 0; a < source.num_attrs(); ++a) {
        row.push_back(source.at(from, static_cast<AttrId>(a)));
      }
      return row;
    };
    RandomWalk(&table, dataset.rules, attrs, seed, /*steps=*/60,
               /*generator_every=*/20, value_for, row_for);
  }
}

}  // namespace
}  // namespace gdr
