// Test-only brute-force oracle for the VOI benefit of Eq. 6, plus the
// randomized instance the VOI suites share.
//
// The oracle shares nothing with the production evaluator
// (HypotheticalBatch's closed-form probes): it copies the table, writes
// the cell, rebuilds a violation index from scratch, and recounts. Its
// per-rule arithmetic and accumulation order match VoiRanker, so the two
// agree bit for bit.
#ifndef GDR_TESTS_TESTING_VOI_ORACLE_H_
#define GDR_TESTS_TESTING_VOI_ORACLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "util/rng.h"

namespace gdr::voi_testing {

/// Σ_φ w_φ (vio(D,{φ}) − vio(D^rj,{φ})) / |D^rj ⊨ φ| over the rules
/// mentioning the update's attribute (rules without a satisfying tuple
/// are skipped), with D^rj built by copying `table`, writing the cell and
/// indexing the copy from scratch.
inline double BruteForceBenefit(const Table& table, const RuleSet& rules,
                                const std::vector<double>& weights,
                                const Update& update) {
  Table before_table = table;
  const ViolationIndex before(&before_table, &rules);
  Table after_table = table;
  after_table.SetById(update.row, update.attr, update.value);
  const ViolationIndex after(&after_table, &rules);
  double benefit = 0.0;
  for (RuleId rule : rules.RulesMentioning(update.attr)) {
    const std::int64_t satisfying = after.SatisfyingCount(rule);
    if (satisfying <= 0) continue;
    const double drop = static_cast<double>(before.RuleViolations(rule) -
                                            after.RuleViolations(rule));
    benefit += weights[static_cast<std::size_t>(rule)] * drop /
               static_cast<double>(satisfying);
  }
  return benefit;
}

/// Randomized instance: an 80-row table over the Figure 1 schema, a
/// constant/variable rule mix, random rule weights, and 12 synthetic
/// candidate groups keyed by (attr, value), as GroupUpdates produces.
struct RandomVoiInstance {
  explicit RandomVoiInstance(std::uint64_t seed)
      : schema(*Schema::Make({"STR", "CT", "STT", "ZIP"})),
        table(schema),
        rules(schema),
        rng(seed) {
    const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd", "Elm St"};
    const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
    const char* states[] = {"IN", "IND"};
    const char* zips[] = {"46825", "46391", "46360", "46802", "46774"};
    for (int i = 0; i < 80; ++i) {
      EXPECT_TRUE(table
                      .AppendRow({streets[rng.NextBounded(4)],
                                  cities[rng.NextBounded(3)],
                                  states[rng.NextBounded(2)],
                                  zips[rng.NextBounded(5)]})
                      .ok());
    }
    EXPECT_TRUE(
        rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
            .ok());
    EXPECT_TRUE(rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville")
                    .ok());
    EXPECT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
    EXPECT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());
    index = std::make_unique<ViolationIndex>(&table, &rules);

    weights.resize(rules.size());
    for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();

    const std::size_t num_groups = 12;
    for (std::size_t g = 0; g < num_groups; ++g) {
      UpdateGroup group;
      group.attr = static_cast<AttrId>(rng.NextBounded(table.num_attrs()));
      group.value = static_cast<ValueId>(
          rng.NextBounded(table.DomainSize(group.attr)));
      const std::size_t members = 3 + rng.NextBounded(12);
      for (std::size_t row_index :
           rng.SampleWithoutReplacement(table.num_rows(), members)) {
        Update update;
        update.row = static_cast<RowId>(row_index);
        update.attr = group.attr;
        update.value = group.value;
        update.score = rng.NextDouble();
        group.updates.push_back(update);
      }
      groups.push_back(std::move(group));
    }
  }

  /// A uniformly random single-cell hypothetical over the current table.
  Update RandomUpdate() {
    Update update;
    update.row = static_cast<RowId>(rng.NextBounded(table.num_rows()));
    update.attr = static_cast<AttrId>(rng.NextBounded(table.num_attrs()));
    update.value =
        static_cast<ValueId>(rng.NextBounded(table.DomainSize(update.attr)));
    return update;
  }

  Schema schema;
  Table table;
  RuleSet rules;
  Rng rng;
  std::unique_ptr<ViolationIndex> index;
  std::vector<double> weights;
  std::vector<UpdateGroup> groups;
};

/// A deterministic stand-in for the learner's p̃.
inline double Probability(const Update& u) { return 0.1 + 0.8 * u.score; }

}  // namespace gdr::voi_testing

#endif  // GDR_TESTS_TESTING_VOI_ORACLE_H_
