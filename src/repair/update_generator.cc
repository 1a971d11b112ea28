#include "repair/update_generator.h"

#include <algorithm>

#include "util/string_similarity.h"

namespace gdr {

UpdateGenerator::UpdateGenerator(ViolationIndex* index, Table* table,
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

double UpdateGenerator::Sim(AttrId attr, ValueId from, ValueId to) const {
  const ValueDict& dict = table_->dict(attr);
  return NormalizedEditSimilarity(dict.ToString(from), dict.ToString(to));
}

std::optional<Update> UpdateGenerator::UpdateAttributeTuple(RowId row,
                                                            AttrId attr) {
  const ScopedPhaseTimer timer(&perf_, PerfPhase::kRegenerate, 1);
  const CellKey cell{row, attr};
  if (!state_->IsChangeable(cell)) return std::nullopt;

  const ValueId current = table_->id_at(row, attr);
  double best_score = -1.0;
  ValueId best_value = kInvalidValueId;

  auto consider = [&](ValueId v, double score) {
    if (v == current || v == kInvalidValueId) return;
    if (state_->IsPrevented(cell, v)) return;
    // Strict improvement: earlier scenarios (and rule constants, offered
    // first in scenario 3) win ties, mirroring Algorithm 1's cur_s >
    // best_s test.
    if (score > best_score) {
      best_score = score;
      best_value = v;
    }
  };

  // conf ratio helper: support of the suggested value against the current
  // value within the evidence set (see class comment).
  auto support_ratio = [](std::int64_t suggested, std::int64_t current_count) {
    const double total =
        static_cast<double>(suggested) + static_cast<double>(current_count);
    return total <= 0.0 ? 0.0 : static_cast<double>(suggested) / total;
  };

  const RuleSet& rules = index_->rules();
  const std::vector<RuleId> violated = index_->ViolatedRules(row);
  std::vector<RuleId> lhs_of;  // violated rules with attr ∈ LHS

  for (RuleId rid : violated) {
    const Cfd& rule = rules.rule(rid);
    if (rule.rhs().attr == attr) {
      if (rule.IsConstant()) {
        // Scenario 1: adopt the pattern constant (conf = 1).
        const ValueId v = table_->InternValue(attr, *rule.rhs().constant);
        consider(v, Sim(attr, current, v));
      } else {
        // Scenario 2: adopt a violation partner's RHS value, weighted by
        // its share of the violating group. Resolve the row's group once;
        // every support probe then hits the same small-vector counts
        // instead of re-deriving the group per partner. Partners sharing
        // a value score identically, so only a value's first partner can
        // win the strict test: later ones are skipped unscored.
        const ViolationIndex::GroupView group = index_->GroupOf(row, rid);
        const std::int64_t current_count = group.ValueCount(current);
        seen_scratch_.clear();
        for (RowId partner : index_->ViolationPartners(row, rid)) {
          const ValueId v = table_->id_at(partner, attr);
          if (std::find(seen_scratch_.begin(), seen_scratch_.end(), v) !=
              seen_scratch_.end()) {
            continue;
          }
          seen_scratch_.push_back(v);
          const double conf =
              support_ratio(group.ValueCount(v), current_count);
          consider(v, Sim(attr, current, v) * conf);
        }
      }
    }
    if (rule.LhsContains(attr)) lhs_of.push_back(rid);
  }

  if (!lhs_of.empty()) {
    // Scenario 3: semantically related replacements — rule constants
    // first, then values from tuples matching t[(X ∪ A) − {B}].
    const std::int64_t current_global = table_->ValueCount(attr, current);
    for (ValueId v : RuleConstants(attr)) {
      const double conf =
          support_ratio(table_->ValueCount(attr, v), current_global);
      consider(v, Sim(attr, current, v) * conf);
    }
    for (RuleId rid : lhs_of) {
      const ViolationIndex::ProjectionValues& bucket =
          index_->ProjectionBucket(rid, attr, row);
      std::int64_t current_in_bucket = 0;
      for (const auto& [v, count] : bucket) {
        if (v == current) current_in_bucket = count;
      }
      for (const auto& [v, count] : bucket) {
        const double conf = support_ratio(count, current_in_bucket);
        consider(v, Sim(attr, current, v) * conf);
      }
    }
  }

  if (best_value == kInvalidValueId) return std::nullopt;
  return Update{row, attr, best_value, best_score};
}

}  // namespace gdr
