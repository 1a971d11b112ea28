// Test-only all-rules scan: the per-row rule queries of ViolationIndex
// (ViolatedRuleCount, HypotheticalViolatedRuleCount, IsDirty,
// ViolatedRules) and VoiRanker::UpdateBenefit, recomputed by visiting
// every rule of Σ instead of the index's dispatched candidates.
//
// RuleScanOracle shares nothing with the index: it resolves each Cfd's
// pattern constants through the table's dictionaries, tallies every
// variable rule's LHS groups in ordered maps when it is built, and tests
// every rule's context from the table's cells. Build a new one after
// every mutation. ScanBenefit probes every
// affected rule of a HypotheticalBatch (the closed forms are pinned
// separately against a rebuild) and sums the non-zero terms in affected-
// rule order, so it agrees bit for bit with a dispatched sum that visits
// the same non-zero terms in the same order.
#ifndef GDR_TESTS_TESTING_RULE_SCAN_ORACLE_H_
#define GDR_TESTS_TESTING_RULE_SCAN_ORACLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "cfd/violation_index.h"
#include "repair/update.h"

namespace gdr::rule_scan_testing {

class RuleScanOracle {
 public:
  RuleScanOracle(const Table& table, const RuleSet& rules)
      : table_(&table), rules_(&rules), groups_(rules.size()) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const Cfd& rule = rules.rule(static_cast<RuleId>(i));
      Pattern& pattern = patterns_.emplace_back();
      for (const PatternCell& cell : rule.lhs()) {
        pattern.lhs.push_back({cell.attr, Constant(cell)});
      }
      pattern.rhs = {rule.rhs().attr, Constant(rule.rhs())};
      if (rule.IsConstant()) continue;
      for (std::size_t r = 0; r < table.num_rows(); ++r) {
        const RowId row = static_cast<RowId>(r);
        if (!InContext(pattern, row, kInvalidAttrId, kInvalidValueId)) {
          continue;
        }
        ++groups_[i][Key(pattern, row, kInvalidAttrId, kInvalidValueId)]
                 [table.id_at(row, pattern.rhs.attr)];
      }
    }
  }

  /// Whether `row` violates rule `rule` with cell (row, attr) holding
  /// `value`; attr = kInvalidAttrId asks about the row as it stands.
  bool Violates(RowId row, RuleId rule, AttrId attr = kInvalidAttrId,
                ValueId value = kInvalidValueId) const {
    const Pattern& pattern = patterns_[static_cast<std::size_t>(rule)];
    if (!InContext(pattern, row, attr, value)) return false;
    const ValueId rhs = Cell(row, pattern.rhs.attr, attr, value);
    if (rules_->rule(rule).IsConstant()) return rhs != pattern.rhs.constant;
    // Conflicts with the other rows of the (hypothetical) LHS group: the
    // tallies count this row itself when its current key is that group's.
    const auto& tallies = groups_[static_cast<std::size_t>(rule)];
    const Cells key = Key(pattern, row, attr, value);
    const auto group = tallies.find(key);
    if (group == tallies.end()) return false;
    std::int64_t others = 0;
    std::int64_t others_same = 0;
    for (const auto& [v, count] : group->second) {
      others += count;
      if (v == rhs) others_same += count;
    }
    if (Key(pattern, row, kInvalidAttrId, kInvalidValueId) == key) {
      --others;
      if (table_->id_at(row, pattern.rhs.attr) == rhs) --others_same;
    }
    return others - others_same > 0;
  }

  /// True when the rule's context t[X] ≍ tp[X] holds at `row`, with
  /// (row, attr) holding `value` when attr is given.
  bool ContextHolds(RowId row, RuleId rule, AttrId attr = kInvalidAttrId,
                    ValueId value = kInvalidValueId) const {
    return InContext(patterns_[static_cast<std::size_t>(rule)], row, attr,
                     value);
  }

  std::vector<RuleId> ViolatedRules(RowId row) const {
    std::vector<RuleId> out;
    for (std::size_t i = 0; i < rules_->size(); ++i) {
      if (Violates(row, static_cast<RuleId>(i))) {
        out.push_back(static_cast<RuleId>(i));
      }
    }
    return out;
  }

  std::int64_t ViolatedRuleCount(RowId row) const {
    return static_cast<std::int64_t>(ViolatedRules(row).size());
  }

  bool IsDirty(RowId row) const { return ViolatedRuleCount(row) > 0; }

  std::int64_t HypotheticalViolatedRuleCount(RowId row, AttrId attr,
                                             ValueId value) const {
    std::int64_t count = 0;
    for (std::size_t i = 0; i < rules_->size(); ++i) {
      if (Violates(row, static_cast<RuleId>(i), attr, value)) ++count;
    }
    return count;
  }

 private:
  using Cells = std::vector<ValueId>;

  // A pattern cell resolved against the table's dictionary once;
  // `constant` is kInvalidValueId for '-'.
  struct Slot {
    AttrId attr = kInvalidAttrId;
    ValueId constant = kInvalidValueId;
  };
  struct Pattern {
    std::vector<Slot> lhs;
    Slot rhs;
  };

  // The id of a pattern constant, kInvalidValueId for '-'. A constant the
  // table never interned could not match any cell; the index interns
  // every rule constant, so that does not arise here.
  ValueId Constant(const PatternCell& cell) const {
    return cell.is_constant() ? table_->dict(cell.attr).Lookup(*cell.constant)
                              : kInvalidValueId;
  }

  ValueId Cell(RowId row, AttrId a, AttrId attr, ValueId value) const {
    return a == attr ? value : table_->id_at(row, a);
  }

  bool InContext(const Pattern& pattern, RowId row, AttrId attr,
                 ValueId value) const {
    for (const Slot& slot : pattern.lhs) {
      if (slot.constant != kInvalidValueId &&
          Cell(row, slot.attr, attr, value) != slot.constant) {
        return false;
      }
    }
    return true;
  }

  Cells Key(const Pattern& pattern, RowId row, AttrId attr,
            ValueId value) const {
    Cells key;
    for (const Slot& slot : pattern.lhs) {
      key.push_back(Cell(row, slot.attr, attr, value));
    }
    return key;
  }

  const Table* table_;
  const RuleSet* rules_;
  std::vector<Pattern> patterns_;
  // Per variable rule: LHS key → RHS value → rows in context.
  std::vector<std::map<Cells, std::map<ValueId, std::int64_t>>> groups_;
};

/// Σ_φ w_φ (vio(D,{φ}) − vio(D^rj,{φ})) / |D^rj ⊨ φ| over *every* rule
/// mentioning the update's attribute, in RulesMentioning order, from one
/// Probe per affected rule.
inline double ScanBenefit(const ViolationIndex& index,
                          const std::vector<double>& weights,
                          const Update& update) {
  HypotheticalBatch batch(&index);
  batch.Stage(update.attr, update.value);
  if (batch.IsNoOp(update.row)) return 0.0;
  double benefit = 0.0;
  for (std::size_t k = 0; k < batch.num_affected(); ++k) {
    const HypotheticalBatch::Effect effect = batch.Probe(k, update.row);
    if (effect.adjustment == 0 || effect.satisfying <= 0) continue;
    benefit += weights[static_cast<std::size_t>(batch.affected_rule(k))] *
               static_cast<double>(-effect.adjustment) /
               static_cast<double>(effect.satisfying);
  }
  return benefit;
}

}  // namespace gdr::rule_scan_testing

#endif  // GDR_TESTS_TESTING_RULE_SCAN_ORACLE_H_
