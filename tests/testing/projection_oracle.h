// Test-only reference for the scenario-3 projection buckets the violation
// index maintains incrementally: the full-table rescan the update
// generator used to rebuild after every cell change, plus a candidate
// generator built on it.
//
// The oracle shares no bucket code with production: it rebuilds every
// bucket of a (rule, B) projection from scratch by scanning the table in
// row order, keying rows in a std::map on their (X ∪ A) − {B} values. The
// generator reimplements Algorithm 1's three scenarios over the index's
// read-only queries and scores every violation partner (no distinct-value
// skip), so it pins both the maintained buckets and the generator's
// candidate order and scores bit for bit.
#ifndef GDR_TESTS_TESTING_PROJECTION_ORACLE_H_
#define GDR_TESTS_TESTING_PROJECTION_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cfd/violation_index.h"
#include "repair/repair_state.h"
#include "repair/update.h"
#include "util/string_similarity.h"

namespace gdr::projection_testing {

using BucketValues = std::vector<std::pair<ValueId, std::int64_t>>;

/// Every bucket of the (rule, attr) projection: key values of
/// (X ∪ A) − {attr}, in rule order → the first
/// ViolationIndex::kMaxValuesPerProjection distinct attr values in
/// first-occurrence row order, with full in-bucket counts.
struct OracleProjection {
  std::vector<AttrId> key_attrs;
  std::map<std::vector<ValueId>, BucketValues> buckets;

  std::vector<ValueId> KeyOf(const Table& table, RowId row) const {
    std::vector<ValueId> key;
    for (AttrId a : key_attrs) key.push_back(table.id_at(row, a));
    return key;
  }

  const BucketValues& Bucket(const Table& table, RowId row) const {
    static const BucketValues kEmpty;
    auto it = buckets.find(KeyOf(table, row));
    return it == buckets.end() ? kEmpty : it->second;
  }
};

inline OracleProjection BuildOracleProjection(const Table& table,
                                              const Cfd& rule, AttrId attr) {
  OracleProjection proj;
  for (const PatternCell& cell : rule.lhs()) {
    if (cell.attr != attr) proj.key_attrs.push_back(cell.attr);
  }
  if (rule.rhs().attr != attr) proj.key_attrs.push_back(rule.rhs().attr);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    BucketValues& bucket = proj.buckets[proj.KeyOf(table, row)];
    const ValueId v = table.id_at(row, attr);
    auto it = std::find_if(bucket.begin(), bucket.end(),
                           [v](const auto& entry) { return entry.first == v; });
    if (it != bucket.end()) {
      ++it->second;
    } else if (bucket.size() < ViolationIndex::kMaxValuesPerProjection) {
      bucket.emplace_back(v, 1);
    }
  }
  return proj;
}

/// UpdateGenerator::UpdateAttributeTuple's contract (see
/// repair/update_generator.h) over a fresh oracle projection per lookup.
class OracleGenerator {
 public:
  OracleGenerator(const ViolationIndex* index, Table* table,
                  const RepairState* state)
      : index_(index), table_(table), state_(state) {
    const RuleSet& rules = index_->rules();
    rule_constants_.resize(table_->num_attrs());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const Cfd& rule = rules.rule(static_cast<RuleId>(i));
      auto add_constant = [this](const PatternCell& cell) {
        if (!cell.is_constant()) return;
        const ValueId id = table_->InternValue(cell.attr, *cell.constant);
        std::vector<ValueId>& consts =
            rule_constants_[static_cast<std::size_t>(cell.attr)];
        if (std::find(consts.begin(), consts.end(), id) == consts.end()) {
          consts.push_back(id);
        }
      };
      for (const PatternCell& cell : rule.lhs()) add_constant(cell);
      add_constant(rule.rhs());
    }
  }

  std::optional<Update> UpdateAttributeTuple(RowId row, AttrId attr) const {
    const CellKey cell{row, attr};
    if (!state_->IsChangeable(cell)) return std::nullopt;

    const ValueId current = table_->id_at(row, attr);
    double best_score = -1.0;
    ValueId best_value = kInvalidValueId;
    auto consider = [&](ValueId v, double score) {
      if (v == current || v == kInvalidValueId) return;
      if (state_->IsPrevented(cell, v)) return;
      if (score > best_score) {
        best_score = score;
        best_value = v;
      }
    };
    auto support_ratio = [](std::int64_t suggested, std::int64_t held) {
      const double total =
          static_cast<double>(suggested) + static_cast<double>(held);
      return total <= 0.0 ? 0.0 : static_cast<double>(suggested) / total;
    };

    const RuleSet& rules = index_->rules();
    std::vector<RuleId> lhs_of;
    for (RuleId rid : index_->ViolatedRules(row)) {
      const Cfd& rule = rules.rule(rid);
      if (rule.rhs().attr == attr) {
        if (rule.IsConstant()) {
          const ValueId v = table_->InternValue(attr, *rule.rhs().constant);
          consider(v, Sim(attr, current, v));
        } else {
          const std::int64_t current_count =
              index_->GroupRhsValueCount(row, rid, current);
          for (RowId partner : index_->ViolationPartners(row, rid)) {
            const ValueId v = table_->id_at(partner, attr);
            consider(v, Sim(attr, current, v) *
                            support_ratio(
                                index_->GroupRhsValueCount(row, rid, v),
                                current_count));
          }
        }
      }
      if (rule.LhsContains(attr)) lhs_of.push_back(rid);
    }

    if (!lhs_of.empty()) {
      const std::int64_t current_global = table_->ValueCount(attr, current);
      for (ValueId v : rule_constants_[static_cast<std::size_t>(attr)]) {
        consider(v, Sim(attr, current, v) *
                        support_ratio(table_->ValueCount(attr, v),
                                      current_global));
      }
      for (RuleId rid : lhs_of) {
        const OracleProjection proj =
            BuildOracleProjection(*table_, rules.rule(rid), attr);
        const BucketValues& bucket = proj.Bucket(*table_, row);
        std::int64_t current_in_bucket = 0;
        for (const auto& [v, count] : bucket) {
          if (v == current) current_in_bucket = count;
        }
        for (const auto& [v, count] : bucket) {
          consider(v, Sim(attr, current, v) *
                          support_ratio(count, current_in_bucket));
        }
      }
    }

    if (best_value == kInvalidValueId) return std::nullopt;
    return Update{row, attr, best_value, best_score};
  }

 private:
  double Sim(AttrId attr, ValueId from, ValueId to) const {
    const ValueDict& dict = table_->dict(attr);
    return NormalizedEditSimilarity(dict.ToString(from), dict.ToString(to));
  }

  const ViolationIndex* index_;
  Table* table_;
  const RepairState* state_;
  std::vector<std::vector<ValueId>> rule_constants_;
};

}  // namespace gdr::projection_testing

#endif  // GDR_TESTS_TESTING_PROJECTION_ORACLE_H_
