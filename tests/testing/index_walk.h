// Test-only seeded random walks over a violation index, shared by the
// change-stamp and re-ranking differential suites: cell changes (one time
// in eight to a value the table has never held), appends of one to three
// rows carrying such values, and apply-then-revert pairs, over Dataset 1,
// Dataset 2 and a hand-built rule set whose variable rules have
// multi-attribute LHSs.
#ifndef GDR_TESTS_TESTING_INDEX_WALK_H_
#define GDR_TESTS_TESTING_INDEX_WALK_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cfd/violation_index.h"
#include "repair/update.h"
#include "sim/dataset1.h"
#include "sim/dataset2.h"
#include "util/rng.h"

namespace gdr::walk_testing {

/// One walk's starting instance and how it draws new cells and rows.
struct Walk {
  std::string name;
  std::shared_ptr<const Dataset> source;  // owns table and rules
  Table table;                            // the walked copy
  std::vector<AttrId> attrs;              // attributes written and probed
  std::function<std::string(AttrId, Rng*)> value;
  std::function<std::vector<std::string>(Rng*)> row;

  const RuleSet& rules() const { return source->rules; }
};

/// Draws over a generated dataset: values and rows come from the source
/// table, one value in eight a fresh one.
inline Walk SourceWalk(std::string name, Dataset dataset,
                       std::vector<AttrId> attrs) {
  auto source = std::make_shared<const Dataset>(std::move(dataset));
  auto fresh = std::make_shared<int>(0);
  Walk walk{std::move(name), source, source->dirty, std::move(attrs), {}, {}};
  walk.value = [source, fresh](AttrId attr, Rng* rng) {
    if (rng->NextBounded(8) == 0) return "fresh" + std::to_string((*fresh)++);
    return source->dirty.at(
        static_cast<RowId>(rng->NextBounded(source->dirty.num_rows())), attr);
  };
  walk.row = [source, fresh](Rng* rng) {
    const Table& t = source->dirty;
    const RowId from = static_cast<RowId>(rng->NextBounded(t.num_rows()));
    std::vector<std::string> row;
    for (std::size_t a = 0; a < t.num_attrs(); ++a) {
      row.push_back(rng->NextBounded(8) == 0
                        ? "fresh" + std::to_string((*fresh)++)
                        : t.at(from, static_cast<AttrId>(a)));
    }
    return row;
  };
  return walk;
}

/// Dataset 1 at 120 rows: the four rule attributes plus one no rule reads.
inline Walk Dataset1Walk() {
  Dataset dataset = *GenerateDataset1({.num_records = 120, .seed = 5});
  const Schema& schema = dataset.dirty.schema();
  std::vector<AttrId> attrs = {
      schema.FindAttr("StreetAddress"), schema.FindAttr("City"),
      schema.FindAttr("Zip"), schema.FindAttr("State"),
      schema.FindAttr("HospitalName")};
  return SourceWalk("dataset1", std::move(dataset), std::move(attrs));
}

/// Dataset 2 at 150 rows, every attribute.
inline Walk Dataset2Walk() {
  Dataset2Options options;
  options.num_records = 150;
  options.seed = 3;
  Dataset dataset = *GenerateDataset2(options);
  std::vector<AttrId> attrs;
  for (std::size_t a = 0; a < dataset.dirty.num_attrs(); ++a) {
    attrs.push_back(static_cast<AttrId>(a));
  }
  return SourceWalk("dataset2", std::move(dataset), std::move(attrs));
}

/// Five attributes over four-value domains (a fifth value per attribute
/// appears only through writes) and a rule mix led by variable rules with
/// two-attribute LHSs, so hypothetical keys often name groups that do not
/// exist yet.
inline Walk HandWalk(std::uint64_t seed) {
  const Schema schema = *Schema::Make({"A", "B", "C", "D", "E"});
  auto dataset = std::make_shared<Dataset>(schema);
  RuleSet& rules = dataset->rules;
  EXPECT_TRUE(rules.AddRuleFromString("ab_c", "A, B -> C").ok());
  EXPECT_TRUE(rules.AddRuleFromString("cd_e", "C, D -> E").ok());
  EXPECT_TRUE(rules.AddRuleFromString("d_a", "D -> A").ok());
  EXPECT_TRUE(rules.AddRuleFromString("e1a_b", "E=e1, A -> B").ok());
  EXPECT_TRUE(rules.AddRuleFromString("a1_c1", "A=a1 -> C=c1").ok());
  EXPECT_TRUE(rules.AddRuleFromString("b2d_e0", "B=b2, D -> E=e0").ok());
  Rng rng(seed);
  const auto random_row = [](Rng* r) {
    std::vector<std::string> row;
    for (char a = 'a'; a <= 'e'; ++a) {
      row.push_back(std::string(1, a) + std::to_string(r->NextBounded(4)));
    }
    return row;
  };
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(dataset->dirty.AppendRow(random_row(&rng)).ok());
  }
  Walk walk{"hand", dataset, dataset->dirty, {0, 1, 2, 3, 4}, {}, {}};
  walk.value = [](AttrId attr, Rng* r) {
    return std::string(1, static_cast<char>('a' + attr)) +
           std::to_string(r->NextBounded(5));
  };
  walk.row = random_row;
  return walk;
}

/// One random step: a cell change, an append of one to three rows, or a
/// change reverted right away.
inline void Step(const Walk& walk, ViolationIndex* index, Rng* rng) {
  const Table& table = index->table();
  const RowId row = static_cast<RowId>(rng->NextBounded(table.num_rows()));
  const AttrId attr = walk.attrs[rng->NextBounded(walk.attrs.size())];
  switch (rng->NextBounded(4)) {
    case 0:
    case 1:
      index->ApplyCellChange(row, attr,
                             std::string_view(walk.value(attr, rng)));
      break;
    case 2: {
      std::vector<std::vector<std::string>> batch;
      const std::size_t n = 1 + rng->NextBounded(3);
      for (std::size_t i = 0; i < n; ++i) batch.push_back(walk.row(rng));
      if (n == 1) {
        ASSERT_TRUE(index->AppendRow(batch.front()).ok());
      } else {
        ASSERT_TRUE(index->AppendRows(batch).ok());
      }
      break;
    }
    case 3: {
      const ValueId old = index->ApplyCellChange(
          row, attr, std::string_view(walk.value(attr, rng)));
      index->ApplyCellChange(row, attr, old);
      break;
    }
  }
}

/// A hypothetical write over the current table: a walked attribute, and
/// either the row's own value or one drawn from the attribute's domain.
inline Update RandomHypothetical(const Walk& walk, const Table& table,
                                 Rng* rng) {
  Update update;
  update.row = static_cast<RowId>(rng->NextBounded(table.num_rows()));
  update.attr = walk.attrs[rng->NextBounded(walk.attrs.size())];
  update.value =
      rng->NextBounded(8) == 0
          ? table.id_at(update.row, update.attr)
          : static_cast<ValueId>(rng->NextBounded(table.DomainSize(update.attr)));
  update.score = rng->NextDouble();
  return update;
}

}  // namespace gdr::walk_testing

#endif  // GDR_TESTS_TESTING_INDEX_WALK_H_
