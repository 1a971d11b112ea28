#ifndef GDR_REPAIR_CONSISTENCY_MANAGER_H_
#define GDR_REPAIR_CONSISTENCY_MANAGER_H_

#include <unordered_set>
#include <vector>

#include "cfd/violation_index.h"
#include "repair/repair_state.h"
#include "repair/update.h"
#include "repair/update_generator.h"
#include "repair/update_pool.h"

namespace gdr {

/// A cell modification actually written to the database, either directly
/// confirmed (by the user or the learner) or forced by the consistency
/// manager's constant-rule cascade (Appendix A.5, step 3(a)i).
struct AppliedChange {
  RowId row = -1;
  AttrId attr = kInvalidAttrId;
  ValueId old_value = kInvalidValueId;
  ValueId new_value = kInvalidValueId;
  bool forced = false;
};

/// The Updates Consistency Manager of Section 3 / Appendix A.5. Owns the
/// interplay between the violation index, the candidate-update pool, and
/// the per-cell repair state, and maintains the two invariants:
///
///  (i)  every tuple violating some rule is in the dirty set, and
///  (ii) no pooled update depends on data values modified since it was
///       generated (stale updates are regenerated).
///
/// Feedback handling (steps 1–6 of A.5):
///  * retain  — freeze the cell, drop its pooled update.
///  * reject  — add the value to the cell's prevented list, regenerate.
///  * confirm — apply the update through the violation index; freeze the
///    cell; then, per rule mentioning the attribute, (a) force tp[A] onto
///    the RHS of a still-violated constant rule whose LHS is fully frozen
///    (cascading, via a work queue), (b) collect a RevisitList of cells
///    whose suggestions may be stale — the tuple's cells in X ∪ A and, for
///    variable rules, the cells of every old- and new-group member — and
///    regenerate their suggestions.
///
/// Invariant (ii) is maintained *more aggressively* than the paper's
/// pseudocode: old-group partners of a variable rule are revisited even
/// when their violations were resolved (paper step 3b removes rules from
/// their vioRuleLists but leaves their stale pool entries to be filtered
/// later); revisiting them immediately keeps the pool exact at all times,
/// which the VOI ranking relies on.
class ConsistencyManager {
 public:
  /// All pointers are non-owning; everything must outlive the manager.
  ConsistencyManager(ViolationIndex* index, UpdatePool* pool,
                     RepairState* state, UpdateGenerator* generator);

  ConsistencyManager(const ConsistencyManager&) = delete;
  ConsistencyManager& operator=(const ConsistencyManager&) = delete;

  /// Step 1 of the GDR process: identifies all dirty tuples and seeds the
  /// pool by calling UpdateAttributeTuple for every (dirty tuple,
  /// attribute) pair. Returns the number of initially dirty tuples (the E
  /// of Section 5.2).
  std::size_t Initialize();

  /// Streaming admission: after rows [first_row, first_row + count) were
  /// appended through ViolationIndex::AppendRows, restores both invariants
  /// for the grown instance. New dirty rows are seeded exactly like
  /// Initialize() (a suggestion per attribute); existing rows pulled into
  /// violation by the arrivals — the appended rows' variable-rule partners
  /// — join the dirty set, with suggestions seeded (newly dirty) or
  /// refreshed on the affected rules' attributes (already dirty, whose
  /// pooled evidence the new group members changed). Appends never clean
  /// an existing row, so no pooled update is retired here. Returns the
  /// number of rows that entered the dirty set.
  std::size_t AdmitRows(RowId first_row, std::size_t count);

  /// Applies one unit of feedback for `update`. Returns the cell changes
  /// written to the database (empty for reject/retain; the confirmed change
  /// plus any forced cascade for confirm).
  std::vector<AppliedChange> ApplyFeedback(const Update& update,
                                           Feedback feedback);

  /// The user supplied the correct value v' directly; treated as confirm of
  /// ⟨t, A, v', 1⟩ (Section 4.2).
  std::vector<AppliedChange> ApplyUserValue(RowId row, AttrId attr,
                                            ValueId value);

  /// Current dirty tuples, ascending. Maintained incrementally.
  std::vector<RowId> DirtyRows() const;

  /// Replaces the dirty set (loading a session checkpoint; DirtyRows()
  /// is what the checkpoint saved).
  void RestoreDirtyRows(const std::vector<RowId>& rows) {
    dirty_ = std::unordered_set<RowId>(rows.begin(), rows.end());
  }

  std::size_t dirty_count() const { return dirty_.size(); }
  bool HasDirtyRows() const { return !dirty_.empty(); }
  bool IsDirty(RowId row) const { return dirty_.contains(row); }

 private:
  // Applies a confirmed value to (row, attr) and performs all consequent
  // maintenance; appends changes (incl. cascades) to `out`.
  void ApplyConfirmedChange(RowId row, AttrId attr, ValueId value,
                            bool forced, std::vector<AppliedChange>* out);

  // Adds `row` to the dirty set and pools a suggestion for each of its
  // attributes.
  void SeedRow(RowId row);

  // Regenerates the pooled suggestion for `cell` (removing it first).
  void Revisit(CellKey cell);

  // True when `row`'s LHS cells of constant `rule` are all frozen and its
  // RHS cell is changeable: the context is confirmed, so tp[A] is entailed.
  bool RhsEntailed(RowId row, const Cfd& rule) const;

  // Recomputes `row`'s membership in the dirty set.
  void RefreshDirty(RowId row);

  ViolationIndex* index_;
  UpdatePool* pool_;
  RepairState* state_;
  UpdateGenerator* generator_;
  std::unordered_set<RowId> dirty_;
  // attr → the attributes (X ∪ A) of every rule mentioning attr, sorted
  // and unique: the cells step 3(b) revisits on each touched row.
  std::vector<std::vector<AttrId>> revisit_attrs_;
  // Scratch for AppendViolationPartners during confirm cascades; partner
  // order is irrelevant there (results land in keyed sets/pools), so the
  // allocation-free unsorted enumeration suffices.
  std::vector<RowId> partner_scratch_;
};

}  // namespace gdr

#endif  // GDR_REPAIR_CONSISTENCY_MANAGER_H_
