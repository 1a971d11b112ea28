#include "repair/consistency_manager.h"

#include <algorithm>
#include <deque>

namespace gdr {

ConsistencyManager::ConsistencyManager(ViolationIndex* index,
                                       UpdatePool* pool, RepairState* state,
                                       UpdateGenerator* generator)
    : index_(index), pool_(pool), state_(state), generator_(generator) {
  const RuleSet& rules = index_->rules();
  revisit_attrs_.resize(index_->table().num_attrs());
  for (std::size_t a = 0; a < revisit_attrs_.size(); ++a) {
    std::vector<AttrId>& attrs = revisit_attrs_[a];
    for (RuleId rid : rules.RulesMentioning(static_cast<AttrId>(a))) {
      const Cfd& rule = rules.rule(rid);
      for (const PatternCell& c : rule.lhs()) attrs.push_back(c.attr);
      attrs.push_back(rule.rhs().attr);
    }
    std::sort(attrs.begin(), attrs.end());
    attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  }
}

std::size_t ConsistencyManager::Initialize() {
  dirty_.clear();
  for (RowId row : index_->DirtyRows()) SeedRow(row);
  return dirty_.size();
}

void ConsistencyManager::SeedRow(RowId row) {
  dirty_.insert(row);
  const std::size_t num_attrs = index_->table().num_attrs();
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (auto update = generator_->UpdateAttributeTuple(row, attr)) {
      pool_->Upsert(*update);
    }
  }
}

std::size_t ConsistencyManager::AdmitRows(RowId first_row, std::size_t count) {
  const RuleSet& rules = index_->rules();
  const std::size_t num_attrs = index_->table().num_attrs();
  const std::size_t dirty_before = dirty_.size();

  // New dirty rows get the full Initialize() treatment: one suggestion per
  // attribute, row-major.
  for (std::size_t i = 0; i < count; ++i) {
    const RowId row = first_row + static_cast<RowId>(i);
    if (index_->IsDirty(row)) SeedRow(row);
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
    index_->ForEachCandidateRule(row, [&](RuleId rid) {
      const Cfd& rule = rules.rule(rid);
      if (!rule.IsVariable() || !index_->Violates(row, rid)) return;
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
    });
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
  std::sort(cells.begin(), cells.end(), CellKeyLess);
  for (const CellKey& cell : cells) Revisit(cell);

  return dirty_.size() - dirty_before;
}

void ConsistencyManager::Revisit(CellKey cell) {
  pool_->Remove(cell);
  if (auto update = generator_->UpdateAttributeTuple(cell.row, cell.attr)) {
    pool_->Upsert(*update);
  }
}

bool ConsistencyManager::RhsEntailed(RowId row, const Cfd& rule) const {
  for (const PatternCell& c : rule.lhs()) {
    if (state_->IsChangeable(CellKey{row, c.attr})) return false;
  }
  return state_->IsChangeable(CellKey{row, rule.rhs().attr});
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

  // Calls fn(rid) for each rule mentioning `change_attr` that the index
  // dispatches for `r`, ascending. Every rule `r` violates (and every
  // variable rule) is among them: the rest have `r` outside their context.
  const auto for_each_affected = [&](RowId r, AttrId change_attr,
                                     const auto& fn) {
    index_->ForEachCandidateRule(r, [&](RuleId rid) {
      if (index_->AffectedSlot(change_attr, rid) >= 0) fn(rid);
    });
  };
  // Partners of `r` under the affected variable rules into `rows`.
  // (Unsorted allocation-free enumeration: everything lands in keyed
  // sets, so partner order never matters in this routine.)
  const auto add_partners = [&](RowId r, AttrId change_attr,
                                std::unordered_set<RowId>* rows) {
    for_each_affected(r, change_attr, [&](RuleId rid) {
      partner_scratch_.clear();
      index_->AppendViolationPartners(r, rid, &partner_scratch_);
      rows->insert(partner_scratch_.begin(), partner_scratch_.end());
    });
  };

  while (!queue.empty()) {
    const PendingChange change = queue.front();
    queue.pop_front();
    const CellKey cell{change.row, change.attr};

    // Confirming the value (even if it equals the current one) freezes the
    // cell and retires its pooled suggestion.
    state_->Freeze(cell);
    pool_->Remove(cell);

    if (table.id_at(change.row, change.attr) == change.value) {
      // No cell changed, but the freeze itself can complete a constant
      // rule's evidence: if the rule is still violated, its LHS is now
      // fully frozen, and its RHS is changeable, tp[A] is entailed
      // (step 3(a)i applies to the freeze, not only to value changes).
      for_each_affected(change.row, change.attr, [&](RuleId rid) {
        const Cfd& rule = rules.rule(rid);
        if (rule.IsConstant() && index_->Violates(change.row, rid) &&
            RhsEntailed(change.row, rule)) {
          queue.push_back(
              {change.row, rule.rhs().attr, index_->RhsConstant(rid), true});
        }
      });
      RefreshDirty(change.row);
      continue;
    }

    // Partner tuples *before* the change: exactly the rows whose violation
    // counts will drop when this row's value moves away from them.
    std::unordered_set<RowId> affected_rows;
    affected_rows.insert(change.row);
    add_partners(change.row, change.attr, &affected_rows);

    const ValueId old_value =
        index_->ApplyCellChange(change.row, change.attr, change.value);
    out->push_back(
        {change.row, change.attr, old_value, change.value, change.forced});

    // Partner tuples *after* the change: rows gaining new violations.
    add_partners(change.row, change.attr, &affected_rows);

    // Step 3(a): per affected rule the row still violates, either escalate
    // (forced RHS of a constant rule with fully frozen LHS) or mark cells
    // for revisiting.
    std::unordered_set<CellKey, CellKeyHash> revisit;
    const auto revisit_rule_attrs = [&revisit](RowId r, const Cfd& rule,
                                               AttrId skip) {
      for (const PatternCell& c : rule.lhs()) {
        if (c.attr != skip) revisit.insert(CellKey{r, c.attr});
      }
      if (rule.rhs().attr != skip) revisit.insert(CellKey{r, rule.rhs().attr});
    };
    for_each_affected(change.row, change.attr, [&](RuleId rid) {
      if (!index_->Violates(change.row, rid)) return;
      const Cfd& rule = rules.rule(rid);
      if (rule.IsConstant() && RhsEntailed(change.row, rule)) {
        // Step 3(a)i: the context is confirmed, so tp[A] is entailed;
        // apply it directly (cascade).
        queue.push_back(
            {change.row, rule.rhs().attr, index_->RhsConstant(rid), true});
        return;
      }
      revisit_rule_attrs(change.row, rule, change.attr);
      if (rule.IsVariable()) {
        // Step 3(a)ii: the row's (new) partners need fresh suggestions on
        // every attribute of the rule too.
        partner_scratch_.clear();
        index_->AppendViolationPartners(change.row, rid, &partner_scratch_);
        for (RowId p : partner_scratch_) {
          revisit_rule_attrs(p, rule, kInvalidAttrId);
        }
      }
    });
    // Step 3(b) and invariant (ii): every other row whose violation state
    // was touched gets its suggestions refreshed on the attributes of
    // every rule mentioning the changed attribute.
    const std::vector<AttrId>& attrs =
        revisit_attrs_[static_cast<std::size_t>(change.attr)];
    for (RowId r : affected_rows) {
      if (r == change.row) continue;
      for (AttrId a : attrs) revisit.insert(CellKey{r, a});
    }

    // Steps 4–5: drop and regenerate suggestions for revisited cells.
    for (const CellKey& c : revisit) Revisit(c);

    // Step 6 / invariant (i): refresh dirty membership of touched rows.
    for (RowId r : affected_rows) RefreshDirty(r);
  }
}

}  // namespace gdr
