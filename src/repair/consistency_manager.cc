#include "repair/consistency_manager.h"

#include <algorithm>
#include <deque>

namespace gdr {

ConsistencyManager::ConsistencyManager(ViolationIndex* index,
                                       UpdatePool* pool, RepairState* state,
                                       UpdateGenerator* generator)
    : index_(index), pool_(pool), state_(state), generator_(generator) {}

std::size_t ConsistencyManager::Initialize() {
  dirty_.clear();
  const std::size_t num_attrs = index_->table().num_attrs();
  for (RowId row : index_->DirtyRows()) {
    dirty_.insert(row);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      if (auto update = generator_->UpdateAttributeTuple(row, attr)) {
        pool_->Upsert(*update);
      }
    }
  }
  return dirty_.size();
}

std::size_t ConsistencyManager::AdmitRows(RowId first_row, std::size_t count) {
  const RuleSet& rules = index_->rules();
  const std::size_t num_attrs = index_->table().num_attrs();
  const std::size_t dirty_before = dirty_.size();

  // New dirty rows get the full Initialize() treatment: one suggestion per
  // attribute, row-major.
  for (std::size_t i = 0; i < count; ++i) {
    const RowId row = first_row + static_cast<RowId>(i);
    if (!index_->IsDirty(row)) continue;
    dirty_.insert(row);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      if (auto update = generator_->UpdateAttributeTuple(row, attr)) {
        pool_->Upsert(*update);
      }
    }
  }

  // Existing rows the arrivals pulled into (deeper) violation: the new
  // rows' variable-rule partners. Constant rules cannot implicate anyone
  // but the appended row itself. Note what is deliberately *not* refreshed:
  // dirty rows that are no partner of any arrival keep their pooled
  // suggestions verbatim — their violations did not change, so invariant
  // (ii) holds without touching them (admission costs O(arrivals and
  // their partners), not O(pool)).
  std::unordered_set<RowId> partners;
  std::unordered_set<CellKey, CellKeyHash> revisit;
  for (std::size_t i = 0; i < count; ++i) {
    const RowId row = first_row + static_cast<RowId>(i);
    for (std::size_t ridx = 0; ridx < rules.size(); ++ridx) {
      const RuleId rid = static_cast<RuleId>(ridx);
      const Cfd& rule = rules.rule(rid);
      if (!rule.IsVariable() || !index_->Violates(row, rid)) continue;
      partner_scratch_.clear();
      index_->AppendViolationPartners(row, rid, &partner_scratch_);
      for (RowId p : partner_scratch_) {
        if (p >= first_row) continue;  // fellow arrivals were seeded above
        partners.insert(p);
        // The partner's suggestions on this rule's attributes were
        // generated against the smaller group; regenerate (invariant (ii)).
        for (const PatternCell& c : rule.lhs()) {
          revisit.insert(CellKey{p, c.attr});
        }
        revisit.insert(CellKey{p, rule.rhs().attr});
      }
    }
  }
  for (const RowId p : partners) {
    if (dirty_.contains(p)) continue;
    // Appends only ever add violations, so a partner outside the dirty set
    // is newly dirty: seed every attribute, like Initialize().
    dirty_.insert(p);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      revisit.insert(CellKey{p, static_cast<AttrId>(a)});
    }
  }
  // Sorted order: regeneration itself is cell-independent, but a
  // deterministic sweep keeps the whole admission replayable step by step.
  std::vector<CellKey> cells(revisit.begin(), revisit.end());
  std::sort(cells.begin(), cells.end(), [](const CellKey& a, const CellKey& b) {
    return a.row != b.row ? a.row < b.row : a.attr < b.attr;
  });
  for (const CellKey& cell : cells) Revisit(cell);

  return dirty_.size() - dirty_before;
}

void ConsistencyManager::Revisit(CellKey cell) {
  pool_->Remove(cell);
  if (auto update = generator_->UpdateAttributeTuple(cell.row, cell.attr)) {
    pool_->Upsert(*update);
  }
}

void ConsistencyManager::RefreshDirty(RowId row) {
  if (index_->IsDirty(row)) {
    dirty_.insert(row);
  } else {
    dirty_.erase(row);
  }
}

std::vector<RowId> ConsistencyManager::DirtyRows() const {
  std::vector<RowId> out(dirty_.begin(), dirty_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<AppliedChange> ConsistencyManager::ApplyFeedback(
    const Update& update, Feedback feedback) {
  std::vector<AppliedChange> applied;
  const CellKey cell = update.cell();
  switch (feedback) {
    case Feedback::kRetain:
      // Step 1: the current value is correct; stop repairing this cell.
      state_->Freeze(cell);
      pool_->Remove(cell);
      break;
    case Feedback::kReject:
      // Step 2: never suggest this value again; look for another one.
      state_->Prevent(cell, update.value);
      Revisit(cell);
      break;
    case Feedback::kConfirm:
      // Step 3: write the value and maintain all dependent structures.
      ApplyConfirmedChange(update.row, update.attr, update.value,
                           /*forced=*/false, &applied);
      break;
  }
  return applied;
}

std::vector<AppliedChange> ConsistencyManager::ApplyUserValue(RowId row,
                                                              AttrId attr,
                                                              ValueId value) {
  std::vector<AppliedChange> applied;
  ApplyConfirmedChange(row, attr, value, /*forced=*/false, &applied);
  return applied;
}

void ConsistencyManager::ApplyConfirmedChange(
    RowId row, AttrId attr, ValueId value, bool forced,
    std::vector<AppliedChange>* out) {
  struct PendingChange {
    RowId row;
    AttrId attr;
    ValueId value;
    bool forced;
  };
  std::deque<PendingChange> queue;
  queue.push_back({row, attr, value, forced});

  const RuleSet& rules = index_->rules();
  const Table& table = index_->table();

  while (!queue.empty()) {
    const PendingChange change = queue.front();
    queue.pop_front();
    const CellKey cell{change.row, change.attr};
    const std::vector<RuleId>& affected_rules =
        rules.RulesMentioning(change.attr);

    // Confirming the value (even if it equals the current one) freezes the
    // cell and retires its pooled suggestion.
    state_->Freeze(cell);
    pool_->Remove(cell);

    if (table.id_at(change.row, change.attr) == change.value) {
      // No cell changed, but the freeze itself can complete a constant
      // rule's evidence: if the rule is still violated, its LHS is now
      // fully frozen, and its RHS is changeable, tp[A] is entailed
      // (step 3(a)i applies to the freeze, not only to value changes).
      for (RuleId rid : affected_rules) {
        const Cfd& rule = rules.rule(rid);
        if (!rule.IsConstant() || !index_->Violates(change.row, rid)) {
          continue;
        }
        bool lhs_frozen = true;
        for (const PatternCell& c : rule.lhs()) {
          if (state_->IsChangeable(CellKey{change.row, c.attr})) {
            lhs_frozen = false;
            break;
          }
        }
        const CellKey rhs_cell{change.row, rule.rhs().attr};
        if (lhs_frozen && state_->IsChangeable(rhs_cell)) {
          queue.push_back(
              {change.row, rule.rhs().attr, index_->RhsConstant(rid), true});
        }
      }
      RefreshDirty(change.row);
      continue;
    }

    // Partner tuples *before* the change: exactly the rows whose violation
    // counts will drop when this row's value moves away from them.
    // (Unsorted allocation-free enumeration: everything lands in keyed
    // sets, so partner order never matters in this routine.)
    std::unordered_set<RowId> affected_rows;
    affected_rows.insert(change.row);
    for (RuleId rid : affected_rules) {
      if (rules.rule(rid).IsVariable()) {
        partner_scratch_.clear();
        index_->AppendViolationPartners(change.row, rid, &partner_scratch_);
        for (RowId p : partner_scratch_) affected_rows.insert(p);
      }
    }

    const ValueId old_value =
        index_->ApplyCellChange(change.row, change.attr, change.value);
    out->push_back(
        {change.row, change.attr, old_value, change.value, change.forced});

    // Partner tuples *after* the change: rows gaining new violations.
    for (RuleId rid : affected_rules) {
      if (rules.rule(rid).IsVariable()) {
        partner_scratch_.clear();
        index_->AppendViolationPartners(change.row, rid, &partner_scratch_);
        for (RowId p : partner_scratch_) affected_rows.insert(p);
      }
    }

    // Steps 3(a)/3(b): per affected rule, either escalate (forced RHS of a
    // constant rule with fully frozen LHS) or mark cells for revisiting.
    std::unordered_set<CellKey, CellKeyHash> revisit;
    for (RuleId rid : affected_rules) {
      const Cfd& rule = rules.rule(rid);

      // Attributes of X ∪ A for this rule.
      std::vector<AttrId> rule_attrs;
      rule_attrs.reserve(rule.lhs().size() + 1);
      for (const PatternCell& c : rule.lhs()) rule_attrs.push_back(c.attr);
      rule_attrs.push_back(rule.rhs().attr);

      if (index_->Violates(change.row, rid)) {
        if (rule.IsConstant()) {
          bool lhs_frozen = true;
          for (const PatternCell& c : rule.lhs()) {
            if (state_->IsChangeable(CellKey{change.row, c.attr})) {
              lhs_frozen = false;
              break;
            }
          }
          const CellKey rhs_cell{change.row, rule.rhs().attr};
          if (lhs_frozen && state_->IsChangeable(rhs_cell)) {
            // Step 3(a)i: the context is confirmed, so tp[A] is entailed;
            // apply it directly (cascade).
            queue.push_back(
                {change.row, rule.rhs().attr, index_->RhsConstant(rid), true});
          } else {
            for (AttrId a : rule_attrs) {
              if (a != change.attr) revisit.insert(CellKey{change.row, a});
            }
          }
        } else {
          // Step 3(a)ii: this row and its (new) partners need fresh
          // suggestions on every attribute of the rule.
          for (AttrId a : rule_attrs) {
            if (a != change.attr) revisit.insert(CellKey{change.row, a});
          }
          partner_scratch_.clear();
          index_->AppendViolationPartners(change.row, rid, &partner_scratch_);
          for (RowId p : partner_scratch_) {
            for (AttrId a : rule_attrs) revisit.insert(CellKey{p, a});
          }
        }
      }
      // Step 3(b) and invariant (ii): every row whose violation state was
      // touched gets its suggestions for this rule's attributes refreshed.
      for (RowId r : affected_rows) {
        if (r == change.row) continue;
        for (AttrId a : rule_attrs) revisit.insert(CellKey{r, a});
      }
    }

    // Steps 4–5: drop and regenerate suggestions for revisited cells.
    for (const CellKey& c : revisit) Revisit(c);

    // Step 6 / invariant (i): refresh dirty membership of touched rows.
    for (RowId r : affected_rows) RefreshDirty(r);
  }
}

}  // namespace gdr
