#ifndef GDR_REPAIR_UPDATE_GENERATOR_H_
#define GDR_REPAIR_UPDATE_GENERATOR_H_

#include <optional>
#include <vector>

#include "cfd/violation_index.h"
#include "repair/repair_state.h"
#include "repair/update.h"
#include "util/perf_counters.h"

namespace gdr {

/// On-demand candidate-update discovery: the paper's UpdateAttributeTuple
/// (Algorithm 1, Appendix A.4), which resolves CFD violations by value
/// modification following the mechanism of Cong et al. (VLDB 2007).
///
/// For a cell (t, B) it explores three scenarios over the rules currently
/// violated by t:
///   1. B = RHS(φ), φ constant: suggest the pattern constant tp[A].
///   2. B = RHS(φ), φ variable: suggest the RHS value of a tuple t' that
///      violates φ together with t (the best-scoring distinct partner
///      value).
///   3. B ∈ LHS(φ) for some violated φ: suggest the value maximizing
///      sim(t[B], v) among (a) constants for B appearing in any rule of Σ
///      ("first using the values in the CFDs") and (b) the B values of
///      tuples that agree with t on the rule's remaining attributes
///      (X ∪ A) − {B} ("searching in the tuples identified by the pattern
///      t[X ∪ A − {B}]") — the semantically related candidates. The
///      projection lookup is ViolationIndex::ProjectionBucket, whose
///      buckets the index keeps current through every cell change and
///      append.
///
/// All scenarios skip values in the cell's prevented list and the cell's
/// current value; the best score across scenarios wins (earlier candidates
/// win ties). Returns nothing when the cell is frozen (⟨t,B⟩.Changeable =
/// false), the tuple violates no rule involving B, or every candidate is
/// prevented.
///
/// Update evaluation function. The paper's Eq. 7 scores an update purely
/// by string similarity, s = sim(v, v'), "any domain specific similarity
/// function can be used". Raw similarity inverts on typo-polluted domains:
/// the value most similar to a clean cell is frequently someone else's
/// typo, so the repairer would be maximally "certain" about its worst
/// suggestions. This implementation therefore scores
///
///     s(r) = sim(v, v') · conf(r),  conf ∈ (0, 1]
///
/// where conf is the suggested value's support within the evidence that
/// produced it:
///   scenario 1 — conf = 1 (the pattern constant is sanctioned by Σ);
///   scenario 2 — conf = n(v') / (n(v') + n(v)) over the violating LHS
///                group (adopting the group's majority is safer than
///                adopting a lone outlier);
///   scenario 3 — same ratio over the projection bucket (or the global
///                value supports, for rule-constant candidates).
///
/// Unlike the paper's pseudocode (best_s initialized to 0 with a strict
/// improvement test), candidates with similarity 0 are admissible here:
/// with categorical domains, the correct value frequently shares no
/// characters with the dirty one, and dropping those candidates would make
/// such cells unrepairable.
class UpdateGenerator {
 public:
  /// `table` is the same table the index is built over; it is used only to
  /// intern candidate values (never to mutate cells directly). All pointers
  /// are non-owning and must outlive the generator.
  UpdateGenerator(ViolationIndex* index, Table* table,
                  const RepairState* state);

  UpdateGenerator(const UpdateGenerator&) = delete;
  UpdateGenerator& operator=(const UpdateGenerator&) = delete;

  /// Best update for cell (row, attr), or nullopt (see class comment).
  std::optional<Update> UpdateAttributeTuple(RowId row, AttrId attr);

  /// sim(from, to) per Eq. 7 over `attr`'s dictionary.
  double Sim(AttrId attr, ValueId from, ValueId to) const;

  /// PerfPhase::kRegenerate: wall time inside UpdateAttributeTuple and
  /// the number of calls.
  const PerfCounters& perf_counters() const { return perf_; }

 private:
  // Constants for `attr` collected from all rules (LHS and RHS patterns),
  // interned once at construction.
  const std::vector<ValueId>& RuleConstants(AttrId attr) const {
    return rule_constants_[static_cast<std::size_t>(attr)];
  }

  ViolationIndex* index_;
  Table* table_;
  const RepairState* state_;
  std::vector<std::vector<ValueId>> rule_constants_;
  std::vector<ValueId> seen_scratch_;  // scenario 2's distinct partner values
  PerfCounters perf_;
};

}  // namespace gdr

#endif  // GDR_REPAIR_UPDATE_GENERATOR_H_
