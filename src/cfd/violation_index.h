#ifndef GDR_CFD_VIOLATION_INDEX_H_
#define GDR_CFD_VIOLATION_INDEX_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cfd/cfd.h"
#include "data/table.h"
#include "util/flat_table.h"
#include "util/result.h"

namespace gdr {

/// Dense index of an interned LHS group within one variable rule's group
/// storage. Group ids are per-rule and recycled through a free list when a
/// group empties, so they are only meaningful against the index's current
/// state — never persist them across mutations.
using GroupId = std::int32_t;

inline constexpr GroupId kNoGroup = -1;

/// What HypotheticalBatch::Probe reports for a hypothetical LHS key that no
/// live group holds: the answer can only change when the rule interns a key
/// (ViolationIndex::GroupStamp reads the rule's key epoch for it).
inline constexpr GroupId kAbsentGroup = -2;

/// Incrementally maintained violation statistics for a (Table, RuleSet)
/// pair. This is the performance workhorse of the library: the consistency
/// manager, the quality-loss metric (Eq. 3), and the VOI benefit estimator
/// (Eq. 6) all reduce to O(1)/O(#affected-rules) queries against it.
///
/// Semantics implemented (paper Appendix A.1 and Definition 1):
///  * constant CFD φ = (X → A, tp), tp[A] = a:
///      t violates φ  iff  t[X] ≍ tp[X] and t[A] ≠ a;    vio(t, φ) = 1.
///  * variable CFD (tp[A] = '-'):
///      t violates φ with t' iff t[X] = t'[X] ≍ tp[X] and t[A] ≠ t'[A];
///      vio(t, φ) = |{t' violating φ with t}|.
///
/// Derived aggregates maintained per rule:
///  * vio(D, {φ})              — Definition 1 sum over tuples,
///  * |D ⊨ φ|                  — number of tuples not violating φ,
///  * |D(φ)|                   — tuples in φ's context (t[X] ≍ tp[X]),
///    which supplies the default rule weight w_φ = |D(φ)|/|D| of Eq. 3.
///
/// Data layout (the hot-path flattening): each variable rule interns its
/// live LHS groups into dense GroupIds. A row → GroupId flat vector makes
/// "which group is t in" a single array read — no key materialization, no
/// hashing — and doubles as the context test (kNoGroup ⇔ t[X] !≍ tp[X]).
/// Group tallies live in a dense vector recycled through a free list, with
/// per-RHS-value counts stored as a sorted (ValueId, count) small-vector
/// (groups overwhelmingly hold 1–3 distinct RHS values). Membership lists
/// are keyed by GroupId in a parallel vector. The key → GroupId hash map
/// survives, but only the mutation path (AddRow) and hypothetical-key
/// queries consult it.
///
/// Rule dispatch: a constant rule's context t[X] ≍ tp[X] can only hold at a
/// row whose cell agrees with the rule's first LHS constant, so every
/// per-row rule loop (queries, mutations, appends, hypothetical probes)
/// walks ForEachCandidateRule's short candidate list instead of Σ. A rule
/// it skips has the row outside its context, where its violation flag,
/// its context count and every hypothetical effect are exactly zero.
///
/// Mutations go through ApplyCellChange, which updates the table cell and
/// all affected per-rule structures. Hypothetical databases D^rj are *not*
/// evaluated by mutating this index: HypotheticalBatch (below) answers a
/// single-cell write's per-rule effect in closed form from the read-only
/// base, so VOI ranking can score many hypotheticals concurrently against
/// one shared immutable index.
///
/// Change stamps: every mutation sets the stamps of what it moves to the
/// version() it runs at — a row's stamp when its cells (and so its
/// constant-rule flags and group memberships) change or it is appended, a
/// variable rule's group slot's stamp when the slot's tallies, key or
/// liveness change, and the rule's key epoch when it interns a new key. A
/// reader that recorded version() together with where it read can tell
/// that nothing it read has moved while every stamp it read is still at or
/// below that version (VoiRanker's re-ranking cache does exactly this).
///
/// The index holds a non-owning pointer to the table; the table must
/// outlive the index, and all mutations while the index is alive must go
/// through ApplyCellChange.
class ViolationIndex {
 public:
  /// Builds the index with a full scan: O(#rows * #rules * arity).
  ViolationIndex(Table* table, const RuleSet* rules);

  ViolationIndex(const ViolationIndex&) = delete;
  ViolationIndex& operator=(const ViolationIndex&) = delete;

  const Table& table() const { return *table_; }
  const RuleSet& rules() const { return *rules_; }

  /// Sets table cell (row, attr) to `value` and updates every rule
  /// mentioning `attr`. Returns the previous value id.
  ValueId ApplyCellChange(RowId row, AttrId attr, ValueId value);

  /// Monotonic counter bumped by every effective cell change and every
  /// append; consumers (e.g., HypotheticalBatch's staging) use it to
  /// detect staleness without subscribing to change events.
  std::uint64_t version() const { return version_; }

  /// String-value convenience overload (interns `value` first).
  ValueId ApplyCellChange(RowId row, AttrId attr, std::string_view value);

  /// The version() of the last change to `row`'s cells (or of its append).
  std::uint64_t RowStamp(RowId row) const {
    return row_stamp_[static_cast<std::size_t>(row)];
  }

  /// The group slot `row` occupies under variable rule `rule`; kNoGroup for
  /// constant rules and rows outside the context. It only changes with the
  /// row's own cells, so it moves no later than RowStamp(row).
  GroupId GroupIdOf(RowId row, RuleId rule) const {
    return stats_[static_cast<std::size_t>(rule)].GroupIdOf(row);
  }

  /// For a group a probe read (HypotheticalBatch::Effect): the version() of
  /// the last change to variable rule `rule`'s group slot `group`, or, for
  /// kAbsentGroup, of the last key the rule interned.
  std::uint64_t GroupStamp(RuleId rule, GroupId group) const {
    const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
    return group == kAbsentGroup
               ? rs.key_epoch
               : rs.group_stamp[static_cast<std::size_t>(group)];
  }

  /// Streaming ingestion: appends one row to the table and indexes it
  /// incrementally — the new row joins its LHS group (or mints one,
  /// recycling a free-listed slot) per variable rule, and the constant-rule
  /// bitmaps grow in place. O(#rules × arity) per row, independent of
  /// table size; aggregates are maintained exactly, so the result is
  /// bit-identical to rebuilding the index over the grown table (the
  /// streaming differential suite pins this). Returns the new RowId.
  /// Bumps version(): staged HypotheticalBatches restage on next use.
  Result<RowId> AppendRow(const std::vector<std::string>& values);

  /// Batch variant: appends and indexes `rows` in order, returning the
  /// first new RowId (the batch occupies [first, first + rows.size())).
  /// All-or-nothing: every row's arity is validated up front, and on
  /// failure neither the table nor the index has changed. Fails on an
  /// empty batch. One version() bump per call.
  Result<RowId> AppendRows(const std::vector<std::vector<std::string>>& rows);

  /// vio(t, {φ}) of Definition 1.
  std::int64_t TupleViolation(RowId row, RuleId rule) const;

  /// True when t violates φ.
  bool Violates(RowId row, RuleId rule) const {
    return TupleViolation(row, rule) > 0;
  }

  /// True when t violates any rule of Σ.
  bool IsDirty(RowId row) const;

  /// Rules currently violated by t (the paper's t.vioRuleList), ordered by
  /// RuleId.
  std::vector<RuleId> ViolatedRules(RowId row) const;

  /// Calls fn(rule), in ascending RuleId order and without allocating, for
  /// every rule whose context can hold at `row` either now or with cell
  /// (row, attr) set to `value`: the variable rules and the constant rules
  /// without an LHS constant, plus the constant rules anchored on the
  /// row's value of an anchor attribute or, when `attr` is one, on `value`.
  /// Every other rule has t[X] !≍ tp[X] both before and after the write.
  template <typename Fn>
  void ForEachCandidateRule(RowId row, AttrId attr, ValueId value,
                            Fn&& fn) const;

  /// The rules whose context can hold at `row` as it stands.
  template <typename Fn>
  void ForEachCandidateRule(RowId row, Fn&& fn) const {
    ForEachCandidateRule(row, kInvalidAttrId, kInvalidValueId,
                         std::forward<Fn>(fn));
  }

  /// Position of `rule` in rules().RulesMentioning(attr), or -1 when the
  /// rule does not mention `attr`. One array read.
  std::int32_t AffectedSlot(AttrId attr, RuleId rule) const {
    return affected_slot_[static_cast<std::size_t>(attr) * stats_.size() +
                          static_cast<std::size_t>(rule)];
  }

  /// All currently dirty rows, ascending.
  std::vector<RowId> DirtyRows() const;

  /// vio(D, {φ}) — total violations charged to rule φ.
  std::int64_t RuleViolations(RuleId rule) const {
    return stats_[static_cast<std::size_t>(rule)].violations;
  }

  /// vio(D, Σ) — Definition 1 aggregate over all rules.
  std::int64_t TotalViolations() const;

  /// |D ⊨ φ| — tuples in φ's context that satisfy φ (t[X] ≍ tp[X] and no
  /// violation). The paper's §4.1 worked example fixes this reading: on
  /// the 8-tuple instance it uses |D^rj ⊨ φ1| = 1, which is the satisfying
  /// count *within* φ1's context, not among all tuples. The context
  /// restriction is what keeps Eq. 6 comparable across rules whose
  /// contexts differ by orders of magnitude.
  std::int64_t SatisfyingCount(RuleId rule) const {
    const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
    return rs.context_count - rs.violating_tuples;
  }

  /// Number of tuples currently violating φ.
  std::int64_t ViolatingCount(RuleId rule) const {
    return stats_[static_cast<std::size_t>(rule)].violating_tuples;
  }

  /// |D(φ)| — tuples in the rule's context.
  std::int64_t ContextCount(RuleId rule) const {
    return stats_[static_cast<std::size_t>(rule)].context_count;
  }

  /// Interned pattern constant tp[A] of a constant rule; kInvalidValueId
  /// for variable rules.
  ValueId RhsConstant(RuleId rule) const {
    return stats_[static_cast<std::size_t>(rule)].rhs_const;
  }

  /// For a variable rule: rows t' that currently violate `rule` together
  /// with `row` (t'[X] = t[X] ≍ tp[X], t'[A] ≠ t[A]), ascending. Empty for
  /// constant rules or non-violating rows. Cost: O(group size) scan over
  /// the group's membership list.
  std::vector<RowId> ViolationPartners(RowId row, RuleId rule) const;

  /// Allocation-free variant: appends the partners to `out` in membership
  /// order (unsorted — callers that need the sorted contract use
  /// ViolationPartners). `out` is not cleared.
  void AppendViolationPartners(RowId row, RuleId rule,
                               std::vector<RowId>* out) const;

  /// Rows in the same variable-rule LHS group as `row` (including `row`
  /// itself when it matches the context), ascending; empty for constant
  /// rules or rows outside the context. Used by the update generator
  /// (scenario 2).
  std::vector<RowId> GroupMembers(RowId row, RuleId rule) const;

  /// Distinct values of a projection bucket with their in-bucket counts.
  using ProjectionValues = std::vector<std::pair<ValueId, std::int64_t>>;

  /// Caps the distinct values a projection bucket lists; beyond this the
  /// candidate set is no longer "semantically tight" anyway.
  static constexpr std::size_t kMaxValuesPerProjection = 32;

  /// The update generator's scenario-3 evidence (Algorithm 1: "the tuples
  /// identified by the pattern t[X ∪ A − {B}]"): over every row t' with
  /// t'[(X ∪ A) − {B}] = t[(X ∪ A) − {B}] for rule φ = `rule` and
  /// B = `attr`, the first kMaxValuesPerProjection distinct t'[B] values
  /// in ascending order of the first row holding them, each with its full
  /// count in the bucket. No context test: the pattern constants of φ
  /// play no part.
  ///
  /// A (rule, B) projection is registered on its first query with one
  /// full scan; rules sharing the attribute set (X ∪ A) − {B} share it.
  /// From then on ApplyCellChange / AppendRow / AppendRows keep its
  /// buckets current: a cell change moves the row between the buckets it
  /// leaves and joins (or marks its bucket when B itself changed), and a
  /// query re-derives only a bucket that was touched since its last
  /// query — O(bucket size), never O(rows). Registration and re-derivation
  /// are why this query is non-const; neither bumps version(). The
  /// reference is invalidated by the next mutation or ProjectionBucket
  /// call. Empty for a row the index has not seen.
  const ProjectionValues& ProjectionBucket(RuleId rule, AttrId attr,
                                           RowId row);

  /// The (rule, B) pairs ProjectionBucket has been asked for, ascending.
  /// A session checkpoint carries them, and a restored session registers
  /// them up front (RegisterProjection): otherwise each would cost one
  /// full scan inside a later feedback call, where the original session
  /// paid it long ago.
  std::vector<std::pair<RuleId, AttrId>> RegisteredProjections() const;

  /// Registers the projection serving (rule, attr), as its first
  /// ProjectionBucket query would, and derives every bucket's values, as
  /// the queries of a long-running session would have.
  void RegisterProjection(RuleId rule, AttrId attr);

  /// Introspection for tests: distinct projections registered so far.
  std::size_t num_projections() const { return projections_.size(); }

  /// Number of rules `row` currently violates.
  std::int64_t ViolatedRuleCount(RowId row) const;

  /// Size of `row`'s LHS group under a variable rule (0 when the rule is
  /// constant or the row is outside the context).
  std::int64_t GroupTotal(RowId row, RuleId rule) const;

  /// How many rows of `row`'s LHS group currently hold `value` in the
  /// rule's RHS attribute (0 outside the context / for constant rules).
  /// GroupTotal and GroupRhsValueCount supply the evidence-support factor
  /// of the update evaluation function.
  std::int64_t GroupRhsValueCount(RowId row, RuleId rule,
                                  ValueId value) const;

 private:
  // LHS key of a variable rule: the row's values of X, in rule order. Only
  // the mutation path and hypothetical-key lookups materialize one.
  using GroupKey = std::vector<ValueId>;

  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& key) const;
  };

  // Per-LHS-group tallies. With total tuples n and per-RHS-value counts
  // c_a: pair violations within the group are n^2 - sum(c_a^2) (each
  // ordered pair with differing RHS), and the number of violating tuples
  // is n when the group has >= 2 distinct RHS values, else 0. The counts
  // are laid out SoA — parallel sorted values[] / counts[] arrays — so the
  // CountOf scan is a straight-line predicated pass over a contiguous
  // ValueId array (no pair-stride gather, no early-exit branch) that the
  // auto-vectorizer handles, and copies/resets are flat array runs.
  // Groups overwhelmingly hold 1–3 distinct RHS values, so the layout wins
  // on scan shape, not size. GroupCounts is the tally core shared with
  // HypotheticalBatch's closed-form probes (which have no use for the
  // owning key).
  struct GroupCounts {
    std::int64_t total = 0;
    std::int64_t sum_sq = 0;  // sum over a of c_a^2
    std::vector<ValueId> values;       // distinct RHS values, ascending
    std::vector<std::int64_t> counts;  // aligned with values; all > 0

    std::int64_t PairViolations() const { return total * total - sum_sq; }
    std::int64_t ViolatingTuples() const {
      return values.size() > 1 ? total : 0;
    }
    std::int64_t Distinct() const {
      return static_cast<std::int64_t>(values.size());
    }

    std::int64_t CountOf(ValueId value) const {
      // Each value appears at most once, so the predicated sum *is* its
      // count (0 when absent). Deliberately no early exit: at the 1–3
      // distinct values groups typically hold, the branchless form beats
      // the compare-and-break loop and vectorizes. The mask-and form
      // (-(v == value) & count, i.e. all-ones or all-zeros mask) compiles
      // to straight-line compare/and/add over the two contiguous arrays
      // with no select per lane; BM_CountOfScan in micro_substrates pins
      // the per-element cost so a codegen regression shows up as numbers,
      // not as a missed inspection.
      const ValueId* vs = values.data();
      const std::int64_t* cs = counts.data();
      const std::size_t n = values.size();
      std::int64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        c += -static_cast<std::int64_t>(vs[i] == value) & cs[i];
      }
      return c;
    }

    /// counts[value] += 1 and maintains sum_sq; keeps both arrays sorted.
    void Increment(ValueId value) {
      std::size_t i = 0;
      while (i < values.size() && values[i] < value) ++i;
      if (i == values.size() || values[i] != value) {
        values.insert(values.begin() + static_cast<std::ptrdiff_t>(i), value);
        counts.insert(counts.begin() + static_cast<std::ptrdiff_t>(i), 0);
      }
      sum_sq += 2 * counts[i] + 1;
      ++counts[i];
      ++total;
    }

    /// counts[value] -= 1 and maintains sum_sq; erases exhausted entries.
    /// The value must be present with a positive count — Decrement is only
    /// reachable through remove-paths for rows previously added.
    void Decrement(ValueId value) {
      std::size_t i = 0;
      while (i < values.size() && values[i] != value) ++i;
      assert(i < values.size() && counts[i] > 0);
      sum_sq -= 2 * counts[i] - 1;
      --counts[i];
      if (counts[i] == 0) {
        values.erase(values.begin() + static_cast<std::ptrdiff_t>(i));
        counts.erase(counts.begin() + static_cast<std::ptrdiff_t>(i));
      }
      --total;
    }

    void Reset() {
      total = 0;
      sum_sq = 0;
      values.clear();  // clear() keeps capacity for slot reuse
      counts.clear();
    }
  };

  struct Group : GroupCounts {
    GroupKey key;  // owning copy, for key_to_group erasure on retirement
  };

  // Precomputed, table-bound form of one rule plus its live aggregates.
  struct RuleStats {
    bool is_constant = false;
    std::vector<AttrId> lhs_attrs;
    // Interned constants aligned with lhs_attrs; kInvalidValueId = wildcard.
    std::vector<ValueId> lhs_consts;
    // Flat attr → "in X" flags (sized to the schema) so hypothetical
    // probes can test LHS membership without scanning lhs_attrs.
    std::vector<std::uint8_t> attr_in_lhs;
    AttrId rhs_attr = kInvalidAttrId;
    ValueId rhs_const = kInvalidValueId;  // constant rules only

    // Aggregates (all rules).
    std::int64_t violations = 0;        // vio(D, {φ})
    std::int64_t violating_tuples = 0;  // |D| - |D ⊨ φ|
    std::int64_t context_count = 0;     // |D(φ)|

    // Constant rules: per-row violation bit (set ⇔ in context AND
    // violating, so queries need no separate context test). Bit-packed:
    // one byte per row per constant rule was 1.6 MB on a 20k-row dataset1.
    std::vector<bool> row_violates;

    // Variable rules: the flattened group layout. row_group is the query
    // hot path (one array read); groups/members are dense storage indexed
    // by GroupId and recycled via free_groups; key_to_group serves the
    // mutation path and hypothetical-key lookups only. It is a flat
    // open-addressing table rather than std::unordered_map because the
    // hypothetical-key path (every batched LHS-moving probe) makes it hot:
    // one contiguous probe run per lookup instead of a node chase.
    std::vector<GroupId> row_group;  // row -> GroupId, kNoGroup = no context
    std::vector<Group> groups;
    std::vector<std::vector<RowId>> members;
    std::vector<GroupId> free_groups;
    FlatTable<GroupKey, GroupId, GroupKeyHash> key_to_group;
    // Change stamps (see the class comment): per group slot, aligned with
    // groups, and the version of the last key interned.
    std::vector<std::uint64_t> group_stamp;
    std::uint64_t key_epoch = 0;

    // Query-path accessors; bounds-guarded so rows appended to the table
    // but not yet indexed read as "outside the context" rather than UB.
    GroupId GroupIdOf(RowId row) const {
      const std::size_t r = static_cast<std::size_t>(row);
      return r < row_group.size() ? row_group[r] : kNoGroup;
    }
    bool ViolatesFlag(RowId row) const {
      const std::size_t r = static_cast<std::size_t>(row);
      return r < row_violates.size() && row_violates[r];
    }
  };

  // True when row matches the rule's LHS pattern (t[X] ≍ tp[X]).
  bool MatchesContext(const RuleStats& rs, RowId row) const;
  void BuildKey(const RuleStats& rs, RowId row, GroupKey* key) const;

  // Finds or creates the dense group slot for `row`'s current LHS key;
  // recycles retired slots through the free list.
  GroupId InternGroup(RuleStats& rs, RowId row);
  void RetireGroupIfEmpty(RuleStats& rs, GroupId gid);

  // Removes/adds `row`'s contribution to `rs` using the row's *current*
  // table values. ApplyCellChange removes with old values, mutates the
  // table, then re-adds.
  void RemoveRow(RuleStats& rs, RowId row);
  void AddRow(RuleStats& rs, RowId row);

  // One bucket of a projection: its rows, ascending, and the values list
  // derived from them by the first query after the bucket was touched.
  struct ProjBucket {
    std::vector<RowId> rows;
    ProjectionValues values;
    bool stale = true;  // values predates a change to rows or their B cells
  };

  // A registered scenario-3 projection: every row bucketed by its values
  // of key_attrs, laid out like a variable rule's groups (dense bucket
  // ids recycled through a free list, row → bucket array, key → bucket
  // map). Bucket keys are not stored: a bucket only empties when its last
  // row leaves, and that row's current cells still spell the key.
  struct Projection {
    AttrId value_attr = kInvalidAttrId;  // B
    std::vector<AttrId> key_attrs;       // (X ∪ A) − {B}, in rule order
    std::vector<GroupId> row_bucket;
    std::vector<ProjBucket> buckets;
    std::vector<GroupId> free_buckets;
    FlatTable<GroupKey, GroupId, GroupKeyHash> key_to_bucket;
  };

  // Bounds-guarded like RuleStats::GroupIdOf: a row the index has not
  // seen is in no bucket.
  static GroupId BucketOf(const Projection& proj, RowId row) {
    const std::size_t r = static_cast<std::size_t>(row);
    return r < proj.row_bucket.size() ? proj.row_bucket[r] : kNoGroup;
  }

  // The projection serving (rule, attr), registering it on first use.
  Projection& ProjectionFor(RuleId rule, AttrId attr);
  void BuildProjKey(const Projection& proj, RowId row, GroupKey* key) const;
  // Adds `row` to the bucket of its current key, minting one if needed.
  void JoinBucket(Projection& proj, RowId row);
  // Removes `row` from its bucket; call while the row's cells still hold
  // the bucket key (the key is rebuilt to retire an emptied bucket).
  void LeaveBucket(Projection& proj, RowId row);
  void DeriveBucket(const Projection& proj, ProjBucket* bucket) const;

  friend class HypotheticalBatch;

  // The dispatch table, built once by the constructor and never changed.
  // A constant rule with an LHS constant is anchored on its first constant
  // LHS cell (c, tp[c]); per anchor attribute c, a CSR maps each ValueId to
  // the rules anchored on it, ascending. The constructor interns every
  // rule constant before sizing the CSR, so a value interned later (or
  // kInvalidValueId) falls outside it and anchors no rule.
  struct AnchorTable {
    AttrId attr = kInvalidAttrId;
    std::vector<std::int32_t> offsets;  // v's rules: [offsets[v], offsets[v+1])
    std::vector<RuleId> rules;

    std::span<const RuleId> RulesFor(ValueId value) const {
      const std::size_t v = static_cast<std::size_t>(value);
      if (value < 0 || v + 1 >= offsets.size()) return {};
      return std::span<const RuleId>(rules).subspan(
          static_cast<std::size_t>(offsets[v]),
          static_cast<std::size_t>(offsets[v + 1] - offsets[v]));
    }
  };

  // Bounds the merge's cursor array. A constant rule whose anchor would be
  // a further attribute goes on the always-visited list instead.
  static constexpr std::size_t kMaxAnchorAttrs = 14;

  void BuildDispatch();

  Table* table_;
  const RuleSet* rules_;
  std::vector<RuleStats> stats_;
  std::vector<AnchorTable> anchors_;
  // Visited for every row: variable rules and constant rules with no LHS
  // constant. Ascending.
  std::vector<RuleId> always_rules_;
  // attr * |Σ| + rule → slot in RulesMentioning(attr), or -1.
  std::vector<std::int32_t> affected_slot_;
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> row_stamp_;  // row -> version of its last change
  GroupKey key_scratch_;  // mutation scratch; const queries never touch it

  std::vector<Projection> projections_;
  // rule * num_attrs + attr → index into projections_; -1 = unregistered.
  std::vector<std::int32_t> projection_slot_;
  // attr → projections whose key or value attribute it is.
  std::vector<std::vector<std::int32_t>> projections_on_attr_;

 public:
  /// Lightweight, non-owning handle to `row`'s LHS group under a variable
  /// rule: lets consumers that probe a group repeatedly (e.g. the update
  /// generator's evidence-support factors) resolve it once instead of per
  /// probe. Invalidated by any index mutation. An invalid view (constant
  /// rule / row outside the context) answers 0/empty.
  class GroupView {
   public:
    bool valid() const { return group_ != nullptr; }
    std::int64_t total() const { return group_ != nullptr ? group_->total : 0; }
    std::int64_t ValueCount(ValueId value) const {
      return group_ != nullptr ? group_->CountOf(value) : 0;
    }
    /// Membership list in internal (unsorted) order; empty when invalid.
    const std::vector<RowId>& rows() const {
      static const std::vector<RowId> kEmpty;
      return rows_ != nullptr ? *rows_ : kEmpty;
    }

   private:
    friend class ViolationIndex;
    GroupView(const Group* group, const std::vector<RowId>* rows)
        : group_(group), rows_(rows) {}
    const Group* group_ = nullptr;
    const std::vector<RowId>* rows_ = nullptr;
  };

  /// The group `row` belongs to under `rule`; invalid for constant rules
  /// and out-of-context rows. One array read.
  GroupView GroupOf(RowId row, RuleId rule) const {
    const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
    if (rs.is_constant) return GroupView(nullptr, nullptr);
    const GroupId gid = rs.GroupIdOf(row);
    if (gid == kNoGroup) return GroupView(nullptr, nullptr);
    return GroupView(&rs.groups[static_cast<std::size_t>(gid)],
                     &rs.members[static_cast<std::size_t>(gid)]);
  }

  /// Introspection for tests: live vs recycled group-slot accounting of a
  /// variable rule's dense storage.
  struct GroupStorageStats {
    std::size_t slots = 0;       // dense storage size (live + free)
    std::size_t free_slots = 0;  // retired, awaiting reuse
    std::size_t live_groups() const { return slots - free_slots; }
  };
  GroupStorageStats GroupStorage(RuleId rule) const {
    const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
    return {rs.groups.size(), rs.free_groups.size()};
  }
};

/// Closed-form evaluator for batches of single-cell hypotheticals that
/// share one (attr, value) write target — exactly the shape of a VOI
/// update group, whose members differ only by row. HypotheticalBatch
/// stages the *shared* part once and answers each row's per-rule effect
/// with pure integer reads against the immutable base:
///
///   Stage(attr, value)   resolves the affected rules and their per-rule
///                        invariants (attr ∈ X?, attr = A?) — once per
///                        group instead of once per update.
///   Probe(k, row)        the k-th affected rule's violation-count
///                        adjustment and |D^rj ⊨ φ| under the write, from
///                        closed-form count arithmetic on the base's group
///                        tallies. No state is written (besides the key
///                        scratch), so nothing needs discarding.
///
/// The arithmetic is ApplyCellChange's remove-then-add discipline in
/// closed form, so each probe equals what mutating a copy of the table and
/// rebuilding its index would report; the VOI suites pin it against
/// exactly that brute-force oracle.
///
/// Contract: Probe assumes the write is effective at the probed row
/// (base value ≠ staged value); callers test IsNoOp(row) first and short-
/// circuit to a zero benefit (writing a cell's own value changes nothing).
/// The base must outlive the batch and must not be mutated mid-probe;
/// Stage() revalidates against base->version(), so a stale staging is
/// refreshed on the next call. One batch per worker thread (the key
/// scratch makes Probe non-reentrant); copy/construct freely. VoiRanker
/// keeps one for all its Rank calls, which is one reason a ranker must not
/// rank concurrently, and LearnerBank one for its violations_after
/// feature. Each probe reports the groups it read, so a caller
/// can keep its answer for as long as the change stamps of the row and of
/// those groups stay put (VoiRanker's re-ranking cache does).
class HypotheticalBatch {
 public:
  explicit HypotheticalBatch(const ViolationIndex* base);

  const ViolationIndex& base() const { return *base_; }

  /// (Re)stages the batch for hypothetical writes of `value` into `attr`.
  /// A no-op when that exact target is already staged against the base's
  /// current version — the group-batched hot loop calls this per update
  /// and pays only once per group.
  void Stage(AttrId attr, ValueId value);

  AttrId staged_attr() const { return attr_; }
  ValueId staged_value() const { return value_; }

  /// Rules mentioning the staged attribute, in RulesMentioning order (the
  /// accumulation order every scoring path shares).
  std::size_t num_affected() const { return staged_.size(); }
  RuleId affected_rule(std::size_t k) const { return staged_[k].rule; }

  /// True when the base already holds the staged value at (row, attr): the
  /// write is a whole-row no-op and every rule effect is exactly zero.
  bool IsNoOp(RowId row) const {
    return base_->table().id_at(row, attr_) == value_;
  }

  struct Effect {
    std::int64_t adjustment = 0;  // vio(D^rj, {φ}) − vio(D, {φ})
    std::int64_t satisfying = 0;  // |D^rj ⊨ φ|
    std::int64_t d_sat = 0;       // satisfying − SatisfyingCount(φ)
    // The variable rule's group slots the probe read besides the row: the
    // row's own group (kNoGroup: out of context or a constant rule) and,
    // for a write that moves the LHS key into the context, the group of
    // the hypothetical key (kAbsentGroup: no live group holds it; kNoGroup:
    // not looked up).
    GroupId own_group = kNoGroup;
    GroupId key_group = kNoGroup;
    // Whether the probed row itself violates the rule after the write.
    bool violates_after = false;
  };

  /// Effect of the staged write applied at `row` on affected rule k.
  /// Requires !IsNoOp(row) (see the class contract). Everything it reads
  /// is the row, the rule's aggregates and the groups it reports, so while
  /// RowStamp(row) and the GroupStamp of each reported group stay put, a
  /// repeat probe returns the same adjustment, d_sat, groups and
  /// violates_after.
  Effect Probe(std::size_t k, RowId row);

 private:
  using RuleStats = ViolationIndex::RuleStats;
  using GroupCounts = ViolationIndex::GroupCounts;
  using GroupKey = ViolationIndex::GroupKey;

  // Per-affected-rule facts that hold for every row of the batch.
  struct StagedRule {
    RuleId rule = 0;
    const RuleStats* rs = nullptr;
    bool attr_in_lhs = false;  // staged attr sits in the rule's X
    bool attr_is_rhs = false;  // staged attr is the rule's A
  };

  // True when `row` matches rs's LHS pattern with the staged write applied.
  bool HypMatchesContext(const RuleStats& rs, RowId row) const;

  const ViolationIndex* base_;
  std::uint64_t staged_version_ = ~0ull;  // never equals a live version()
  AttrId attr_ = kInvalidAttrId;
  ValueId value_ = kInvalidValueId;
  std::vector<StagedRule> staged_;
  GroupKey key_scratch_;  // LHS-moving probes build the hypothetical key here
};

template <typename Fn>
void ViolationIndex::ForEachCandidateRule(RowId row, AttrId attr,
                                          ValueId value, Fn&& fn) const {
  // The sources are disjoint ascending lists (a rule sits on exactly one,
  // and the two spans of the written attribute hold different values), so
  // a k-way merge yields each candidate once, in RuleId order.
  std::array<std::span<const RuleId>, kMaxAnchorAttrs + 2> sources;
  std::size_t n = 0;
  const auto add = [&sources, &n](std::span<const RuleId> rules) {
    if (!rules.empty()) sources[n++] = rules;
  };
  add(always_rules_);
  for (const AnchorTable& anchor : anchors_) {
    const ValueId current = table_->id_at(row, anchor.attr);
    add(anchor.RulesFor(current));
    if (anchor.attr == attr && value != current) add(anchor.RulesFor(value));
  }
  while (n > 1) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (sources[i].front() < sources[best].front()) best = i;
    }
    fn(sources[best].front());
    sources[best] = sources[best].subspan(1);
    if (sources[best].empty()) sources[best] = sources[--n];
  }
  if (n == 1) {
    for (const RuleId rule : sources[0]) fn(rule);
  }
}

}  // namespace gdr

#endif  // GDR_CFD_VIOLATION_INDEX_H_
