#include "cfd/violation_index.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace gdr {

std::size_t ViolationIndex::GroupKeyHash::operator()(
    const GroupKey& key) const {
  // FNV-1a over the id bytes; exact-key equality is checked by the map.
  std::uint64_t h = 1469598103934665603ULL;
  for (ValueId id : key) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h);
}

ViolationIndex::ViolationIndex(Table* table, const RuleSet* rules)
    : table_(table), rules_(rules) {
  stats_.resize(rules_->size());
  for (std::size_t i = 0; i < rules_->size(); ++i) {
    const Cfd& rule = rules_->rule(static_cast<RuleId>(i));
    RuleStats& rs = stats_[i];
    rs.is_constant = rule.IsConstant();
    rs.rhs_attr = rule.rhs().attr;
    if (rs.is_constant) {
      rs.rhs_const = table_->InternValue(rs.rhs_attr, *rule.rhs().constant);
      rs.row_violates.assign(table_->num_rows(), false);
    } else {
      rs.row_group.assign(table_->num_rows(), kNoGroup);
    }
    rs.attr_in_lhs.assign(table_->num_attrs(), 0);
    for (const PatternCell& cell : rule.lhs()) {
      rs.lhs_attrs.push_back(cell.attr);
      rs.lhs_consts.push_back(
          cell.is_constant() ? table_->InternValue(cell.attr, *cell.constant)
                             : kInvalidValueId);
      rs.attr_in_lhs[static_cast<std::size_t>(cell.attr)] = 1;
    }
  }
  BuildDispatch();
  row_stamp_.assign(table_->num_rows(), version_);
  for (std::size_t r = 0; r < table_->num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    ForEachCandidateRule(row, [this, row](RuleId id) {
      AddRow(stats_[static_cast<std::size_t>(id)], row);
    });
  }
  projection_slot_.assign(rules_->size() * table_->num_attrs(), -1);
  projections_on_attr_.resize(table_->num_attrs());
}

void ViolationIndex::BuildDispatch() {
  std::vector<std::int32_t> anchor_of_attr(table_->num_attrs(), -1);
  // Per anchor: (anchor value, rule) pairs.
  std::vector<std::vector<std::pair<ValueId, RuleId>>> anchored;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const RuleStats& rs = stats_[i];
    const RuleId rule = static_cast<RuleId>(i);
    const auto first_const =
        std::find_if(rs.lhs_consts.begin(), rs.lhs_consts.end(),
                     [](ValueId v) { return v != kInvalidValueId; });
    if (!rs.is_constant || first_const == rs.lhs_consts.end()) {
      always_rules_.push_back(rule);
      continue;
    }
    const AttrId attr = rs.lhs_attrs[static_cast<std::size_t>(
        first_const - rs.lhs_consts.begin())];
    std::int32_t& slot = anchor_of_attr[static_cast<std::size_t>(attr)];
    if (slot < 0 && anchors_.size() < kMaxAnchorAttrs) {
      slot = static_cast<std::int32_t>(anchors_.size());
      anchors_.emplace_back().attr = attr;
      anchored.emplace_back();
    }
    if (slot < 0) {
      always_rules_.push_back(rule);
    } else {
      anchored[static_cast<std::size_t>(slot)].emplace_back(*first_const,
                                                            rule);
    }
  }
  for (std::size_t a = 0; a < anchors_.size(); ++a) {
    AnchorTable& anchor = anchors_[a];
    std::vector<std::pair<ValueId, RuleId>>& pairs = anchored[a];
    std::sort(pairs.begin(), pairs.end());  // by value, then RuleId
    anchor.offsets.assign(table_->dict(anchor.attr).size() + 1, 0);
    for (const auto& [value, rule] : pairs) {
      ++anchor.offsets[static_cast<std::size_t>(value) + 1];
      anchor.rules.push_back(rule);
    }
    std::partial_sum(anchor.offsets.begin(), anchor.offsets.end(),
                     anchor.offsets.begin());
  }

  affected_slot_.assign(table_->num_attrs() * stats_.size(), -1);
  for (std::size_t a = 0; a < table_->num_attrs(); ++a) {
    const std::vector<RuleId>& mentioning =
        rules_->RulesMentioning(static_cast<AttrId>(a));
    for (std::size_t k = 0; k < mentioning.size(); ++k) {
      affected_slot_[a * stats_.size() +
                     static_cast<std::size_t>(mentioning[k])] =
          static_cast<std::int32_t>(k);
    }
  }
}

Result<RowId> ViolationIndex::AppendRow(const std::vector<std::string>& values) {
  GDR_ASSIGN_OR_RETURN(const RowId row, table_->AppendRow(values));
  ++version_;
  row_stamp_.push_back(version_);
  ForEachCandidateRule(row, [this, row](RuleId id) {
    AddRow(stats_[static_cast<std::size_t>(id)], row);
  });
  for (Projection& proj : projections_) JoinBucket(proj, row);
  return row;
}

Result<RowId> ViolationIndex::AppendRows(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("AppendRows needs at least one row");
  }
  // Validate every arity before touching anything, so a malformed row in
  // the middle of a batch cannot leave the table and index half-grown.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != table_->num_attrs()) {
      return Status::InvalidArgument(
          "batch row " + std::to_string(i) + ": arity " +
          std::to_string(rows[i].size()) + " does not match schema arity " +
          std::to_string(table_->num_attrs()) + " (no rows were appended)");
    }
  }
  ++version_;
  const RowId first = static_cast<RowId>(table_->num_rows());
  table_->Reserve(table_->num_rows() + rows.size());
  for (const std::vector<std::string>& values : rows) {
    // Cannot fail: arity was validated above, and AppendRow has no other
    // failure mode.
    const Result<RowId> row = table_->AppendRow(values);
    assert(row.ok());
    ForEachCandidateRule(*row, [this, &row](RuleId id) {
      AddRow(stats_[static_cast<std::size_t>(id)], *row);
    });
    for (Projection& proj : projections_) JoinBucket(proj, *row);
  }
  row_stamp_.resize(table_->num_rows(), version_);
  return first;
}

bool ViolationIndex::MatchesContext(const RuleStats& rs, RowId row) const {
  for (std::size_t i = 0; i < rs.lhs_attrs.size(); ++i) {
    if (rs.lhs_consts[i] != kInvalidValueId &&
        table_->id_at(row, rs.lhs_attrs[i]) != rs.lhs_consts[i]) {
      return false;
    }
  }
  return true;
}

void ViolationIndex::BuildKey(const RuleStats& rs, RowId row,
                              GroupKey* key) const {
  key->resize(rs.lhs_attrs.size());
  for (std::size_t i = 0; i < rs.lhs_attrs.size(); ++i) {
    (*key)[i] = table_->id_at(row, rs.lhs_attrs[i]);
  }
}

GroupId ViolationIndex::InternGroup(RuleStats& rs, RowId row) {
  BuildKey(rs, row, &key_scratch_);
  if (const GroupId* found = rs.key_to_group.Find(key_scratch_)) {
    return *found;
  }

  GroupId gid;
  if (!rs.free_groups.empty()) {
    gid = rs.free_groups.back();
    rs.free_groups.pop_back();
    Group& g = rs.groups[static_cast<std::size_t>(gid)];
    g.Reset();
    g.key.assign(key_scratch_.begin(), key_scratch_.end());
  } else {
    gid = static_cast<GroupId>(rs.groups.size());
    rs.groups.emplace_back();
    rs.groups.back().key = key_scratch_;
    rs.members.emplace_back();
    rs.group_stamp.emplace_back();
  }
  rs.key_to_group.Insert(rs.groups[static_cast<std::size_t>(gid)].key, gid);
  rs.key_epoch = version_;
  return gid;
}

void ViolationIndex::AddRow(RuleStats& rs, RowId row) {
  if (!MatchesContext(rs, row)) return;
  ++rs.context_count;

  if (rs.is_constant) {
    const bool violates = table_->id_at(row, rs.rhs_attr) != rs.rhs_const;
    if (static_cast<std::size_t>(row) >= rs.row_violates.size()) {
      rs.row_violates.resize(table_->num_rows(), false);
    }
    rs.row_violates[static_cast<std::size_t>(row)] = violates;
    if (violates) {
      ++rs.violations;
      ++rs.violating_tuples;
    }
    return;
  }

  const GroupId gid = InternGroup(rs, row);
  Group& g = rs.groups[static_cast<std::size_t>(gid)];
  // The slot's stamp covers its tallies and, since minting and retiring a
  // slot only happen here and in RemoveRow, its key and liveness too.
  rs.group_stamp[static_cast<std::size_t>(gid)] = version_;
  // Retire the group's old contribution to the rule aggregates, mutate,
  // then account the new contribution.
  rs.violations -= g.PairViolations();
  rs.violating_tuples -= g.ViolatingTuples();
  g.Increment(table_->id_at(row, rs.rhs_attr));
  rs.violations += g.PairViolations();
  rs.violating_tuples += g.ViolatingTuples();

  rs.members[static_cast<std::size_t>(gid)].push_back(row);
  if (static_cast<std::size_t>(row) >= rs.row_group.size()) {
    rs.row_group.resize(table_->num_rows(), kNoGroup);
  }
  rs.row_group[static_cast<std::size_t>(row)] = gid;
}

void ViolationIndex::RemoveRow(RuleStats& rs, RowId row) {
  if (rs.is_constant) {
    if (!MatchesContext(rs, row)) return;
    --rs.context_count;
    // ViolatesFlag is bounds-guarded (appended-but-unindexed rows read as
    // non-violating), and a set flag implies the slot exists.
    if (rs.ViolatesFlag(row)) {
      --rs.violations;
      --rs.violating_tuples;
      rs.row_violates[static_cast<std::size_t>(row)] = false;
    }
    return;
  }

  // For variable rules, row_group doubles as the context test: every
  // in-context row is a member of exactly one group.
  const GroupId gid = rs.GroupIdOf(row);
  if (gid == kNoGroup) return;
  --rs.context_count;

  Group& g = rs.groups[static_cast<std::size_t>(gid)];
  rs.group_stamp[static_cast<std::size_t>(gid)] = version_;
  rs.violations -= g.PairViolations();
  rs.violating_tuples -= g.ViolatingTuples();
  g.Decrement(table_->id_at(row, rs.rhs_attr));
  rs.violations += g.PairViolations();
  rs.violating_tuples += g.ViolatingTuples();

  rs.row_group[static_cast<std::size_t>(row)] = kNoGroup;
  std::vector<RowId>& rows = rs.members[static_cast<std::size_t>(gid)];
  auto rit = std::find(rows.begin(), rows.end(), row);
  assert(rit != rows.end());
  *rit = rows.back();
  rows.pop_back();

  if (g.total == 0) RetireGroupIfEmpty(rs, gid);
}

void ViolationIndex::RetireGroupIfEmpty(RuleStats& rs, GroupId gid) {
  Group& g = rs.groups[static_cast<std::size_t>(gid)];
  if (g.total != 0) return;
  rs.key_to_group.Erase(g.key);
  g.key.clear();  // clear(), not shrink: the slot keeps its capacity
  g.Reset();      // for reuse through the free list
  rs.members[static_cast<std::size_t>(gid)].clear();
  rs.free_groups.push_back(gid);
}

ValueId ViolationIndex::ApplyCellChange(RowId row, AttrId attr,
                                        ValueId value) {
  const ValueId old = table_->id_at(row, attr);
  if (old == value) return old;
  ++version_;
  row_stamp_[static_cast<std::size_t>(row)] = version_;
  // Only the rules mentioning attr change, and of those only the ones
  // dispatched for the write: a skipped constant rule has the row outside
  // its context under the old and the new value, so RemoveRow and AddRow
  // would both return at the context test. The candidate set is the same
  // whether asked before the write (row, attr := value) or after it
  // (row, attr := old).
  ForEachCandidateRule(row, attr, value, [this, row, attr](RuleId id) {
    if (AffectedSlot(attr, id) >= 0) {
      RemoveRow(stats_[static_cast<std::size_t>(id)], row);
    }
  });
  // Projections keyed on attr move the row between buckets; a projection
  // whose value attribute is attr keeps the row in place.
  const std::vector<std::int32_t>& projections =
      projections_on_attr_[static_cast<std::size_t>(attr)];
  for (std::int32_t p : projections) {
    Projection& proj = projections_[static_cast<std::size_t>(p)];
    if (proj.value_attr != attr) LeaveBucket(proj, row);
  }
  table_->SetById(row, attr, value);
  ForEachCandidateRule(row, attr, old, [this, row, attr](RuleId id) {
    if (AffectedSlot(attr, id) >= 0) {
      AddRow(stats_[static_cast<std::size_t>(id)], row);
    }
  });
  for (std::int32_t p : projections) {
    Projection& proj = projections_[static_cast<std::size_t>(p)];
    if (proj.value_attr != attr) {
      JoinBucket(proj, row);
    } else if (const GroupId bid = BucketOf(proj, row); bid != kNoGroup) {
      proj.buckets[static_cast<std::size_t>(bid)].stale = true;
    }
  }
  return old;
}

ValueId ViolationIndex::ApplyCellChange(RowId row, AttrId attr,
                                        std::string_view value) {
  return ApplyCellChange(row, attr, table_->InternValue(attr, value));
}

std::int64_t ViolationIndex::TupleViolation(RowId row, RuleId rule) const {
  const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
  if (rs.is_constant) {
    // The flag is 1 only for in-context violating rows, so no separate
    // context test is needed.
    return rs.ViolatesFlag(row) ? 1 : 0;
  }
  const GroupId gid = rs.GroupIdOf(row);
  if (gid == kNoGroup) return 0;
  const Group& g = rs.groups[static_cast<std::size_t>(gid)];
  return g.total - g.CountOf(table_->id_at(row, rs.rhs_attr));
}

bool ViolationIndex::IsDirty(RowId row) const {
  return ViolatedRuleCount(row) > 0;
}

std::vector<RuleId> ViolationIndex::ViolatedRules(RowId row) const {
  std::vector<RuleId> out;
  ForEachCandidateRule(row, [this, row, &out](RuleId rule) {
    if (TupleViolation(row, rule) > 0) out.push_back(rule);
  });
  return out;
}

std::vector<RowId> ViolationIndex::DirtyRows() const {
  std::vector<RowId> out;
  for (std::size_t r = 0; r < table_->num_rows(); ++r) {
    if (IsDirty(static_cast<RowId>(r))) out.push_back(static_cast<RowId>(r));
  }
  return out;
}

std::int64_t ViolationIndex::ViolatedRuleCount(RowId row) const {
  std::int64_t count = 0;
  ForEachCandidateRule(row, [this, row, &count](RuleId rule) {
    if (TupleViolation(row, rule) > 0) ++count;
  });
  return count;
}

std::int64_t ViolationIndex::GroupTotal(RowId row, RuleId rule) const {
  const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
  if (rs.is_constant) return 0;
  const GroupId gid = rs.GroupIdOf(row);
  return gid == kNoGroup ? 0
                         : rs.groups[static_cast<std::size_t>(gid)].total;
}

std::int64_t ViolationIndex::GroupRhsValueCount(RowId row, RuleId rule,
                                                ValueId value) const {
  const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
  if (rs.is_constant) return 0;
  const GroupId gid = rs.GroupIdOf(row);
  if (gid == kNoGroup) return 0;
  return rs.groups[static_cast<std::size_t>(gid)].CountOf(value);
}

std::int64_t ViolationIndex::TotalViolations() const {
  std::int64_t total = 0;
  for (const RuleStats& rs : stats_) total += rs.violations;
  return total;
}

void ViolationIndex::AppendViolationPartners(RowId row, RuleId rule,
                                             std::vector<RowId>* out) const {
  const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
  if (rs.is_constant) return;
  const GroupId gid = rs.GroupIdOf(row);
  if (gid == kNoGroup) return;
  const ValueId a = table_->id_at(row, rs.rhs_attr);
  for (RowId other : rs.members[static_cast<std::size_t>(gid)]) {
    if (other != row && table_->id_at(other, rs.rhs_attr) != a) {
      out->push_back(other);
    }
  }
}

std::vector<RowId> ViolationIndex::ViolationPartners(RowId row,
                                                     RuleId rule) const {
  std::vector<RowId> out;
  AppendViolationPartners(row, rule, &out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RowId> ViolationIndex::GroupMembers(RowId row, RuleId rule) const {
  const RuleStats& rs = stats_[static_cast<std::size_t>(rule)];
  std::vector<RowId> out;
  if (rs.is_constant) return out;
  const GroupId gid = rs.GroupIdOf(row);
  if (gid == kNoGroup) return out;
  out = rs.members[static_cast<std::size_t>(gid)];
  std::sort(out.begin(), out.end());
  return out;
}

ViolationIndex::Projection& ViolationIndex::ProjectionFor(RuleId rule,
                                                          AttrId attr) {
  const std::size_t slot =
      static_cast<std::size_t>(rule) * table_->num_attrs() +
      static_cast<std::size_t>(attr);
  if (projection_slot_[slot] >= 0) {
    return projections_[static_cast<std::size_t>(projection_slot_[slot])];
  }

  const Cfd& cfd = rules_->rule(rule);
  std::vector<AttrId> key_attrs;
  for (const PatternCell& cell : cfd.lhs()) {
    if (cell.attr != attr) key_attrs.push_back(cell.attr);
  }
  if (cfd.rhs().attr != attr) key_attrs.push_back(cfd.rhs().attr);

  // Buckets depend only on the key attribute *set*, so a rule whose set
  // matches an earlier registrant's reuses its projection.
  for (std::size_t p = 0; p < projections_.size(); ++p) {
    const Projection& proj = projections_[p];
    if (proj.value_attr == attr &&
        std::is_permutation(proj.key_attrs.begin(), proj.key_attrs.end(),
                            key_attrs.begin(), key_attrs.end())) {
      projection_slot_[slot] = static_cast<std::int32_t>(p);
      return projections_[p];
    }
  }

  const std::int32_t id = static_cast<std::int32_t>(projections_.size());
  projection_slot_[slot] = id;
  Projection& proj = projections_.emplace_back();
  proj.value_attr = attr;
  proj.key_attrs = std::move(key_attrs);
  projections_on_attr_[static_cast<std::size_t>(attr)].push_back(id);
  for (AttrId a : proj.key_attrs) {
    std::vector<std::int32_t>& on_attr =
        projections_on_attr_[static_cast<std::size_t>(a)];
    if (on_attr.empty() || on_attr.back() != id) on_attr.push_back(id);
  }
  // Ascending scan: every bucket's rows come out sorted.
  proj.row_bucket.reserve(table_->num_rows());
  for (std::size_t r = 0; r < table_->num_rows(); ++r) {
    JoinBucket(proj, static_cast<RowId>(r));
  }
  return proj;
}

std::vector<std::pair<RuleId, AttrId>> ViolationIndex::RegisteredProjections()
    const {
  std::vector<std::pair<RuleId, AttrId>> out;
  const std::size_t num_attrs = table_->num_attrs();
  for (std::size_t slot = 0; slot < projection_slot_.size(); ++slot) {
    if (projection_slot_[slot] < 0) continue;
    out.emplace_back(static_cast<RuleId>(slot / num_attrs),
                     static_cast<AttrId>(slot % num_attrs));
  }
  return out;
}

void ViolationIndex::RegisterProjection(RuleId rule, AttrId attr) {
  Projection& proj = ProjectionFor(rule, attr);
  for (ProjBucket& bucket : proj.buckets) {
    if (bucket.stale) DeriveBucket(proj, &bucket);
  }
}

void ViolationIndex::BuildProjKey(const Projection& proj, RowId row,
                                  GroupKey* key) const {
  key->resize(proj.key_attrs.size());
  for (std::size_t k = 0; k < proj.key_attrs.size(); ++k) {
    (*key)[k] = table_->id_at(row, proj.key_attrs[k]);
  }
}

void ViolationIndex::JoinBucket(Projection& proj, RowId row) {
  BuildProjKey(proj, row, &key_scratch_);
  bool minted = false;
  GroupId& slot = proj.key_to_bucket.FindOrInsert(key_scratch_, &minted);
  if (minted) {
    if (!proj.free_buckets.empty()) {
      slot = proj.free_buckets.back();
      proj.free_buckets.pop_back();
    } else {
      slot = static_cast<GroupId>(proj.buckets.size());
      proj.buckets.emplace_back();
    }
  }
  const GroupId bid = slot;
  ProjBucket& bucket = proj.buckets[static_cast<std::size_t>(bid)];
  bucket.rows.insert(
      std::lower_bound(bucket.rows.begin(), bucket.rows.end(), row), row);
  bucket.stale = true;
  if (static_cast<std::size_t>(row) >= proj.row_bucket.size()) {
    proj.row_bucket.resize(static_cast<std::size_t>(row) + 1, kNoGroup);
  }
  proj.row_bucket[static_cast<std::size_t>(row)] = bid;
}

void ViolationIndex::LeaveBucket(Projection& proj, RowId row) {
  const GroupId bid = BucketOf(proj, row);
  if (bid == kNoGroup) return;
  ProjBucket& bucket = proj.buckets[static_cast<std::size_t>(bid)];
  const auto it =
      std::lower_bound(bucket.rows.begin(), bucket.rows.end(), row);
  assert(it != bucket.rows.end() && *it == row);
  bucket.rows.erase(it);
  bucket.stale = true;
  proj.row_bucket[static_cast<std::size_t>(row)] = kNoGroup;
  if (bucket.rows.empty()) {
    BuildProjKey(proj, row, &key_scratch_);
    proj.key_to_bucket.Erase(key_scratch_);
    proj.free_buckets.push_back(bid);
  }
}

void ViolationIndex::DeriveBucket(const Projection& proj,
                                  ProjBucket* bucket) const {
  bucket->values.clear();
  for (RowId r : bucket->rows) {
    const ValueId v = table_->id_at(r, proj.value_attr);
    auto it = std::find_if(bucket->values.begin(), bucket->values.end(),
                           [v](const auto& entry) { return entry.first == v; });
    if (it != bucket->values.end()) {
      ++it->second;
    } else if (bucket->values.size() < kMaxValuesPerProjection) {
      bucket->values.emplace_back(v, 1);
    }
  }
  bucket->stale = false;
}

const ViolationIndex::ProjectionValues& ViolationIndex::ProjectionBucket(
    RuleId rule, AttrId attr, RowId row) {
  static const ProjectionValues kEmpty;
  Projection& proj = ProjectionFor(rule, attr);
  const GroupId bid = BucketOf(proj, row);
  if (bid == kNoGroup) return kEmpty;
  ProjBucket& bucket = proj.buckets[static_cast<std::size_t>(bid)];
  if (bucket.stale) DeriveBucket(proj, &bucket);
  return bucket.values;
}

// ---------------------------------------------------------------------------
// HypotheticalBatch
// ---------------------------------------------------------------------------
//
// Every formula below is the closed form of what ApplyCellChange would do
// to the affected rule's aggregates: remove the row's contribution under
// its base values, land the write, re-add under the hypothetical values.
// The intermediates are the same integers the group tallies'
// Increment/Decrement bookkeeping would produce, so a probe agrees exactly
// with mutating a copy of the table and rebuilding its index (the
// brute-force oracle the VOI suites pin it against).

HypotheticalBatch::HypotheticalBatch(const ViolationIndex* base)
    : base_(base) {}

void HypotheticalBatch::Stage(AttrId attr, ValueId value) {
  if (attr == attr_ && value == value_ &&
      staged_version_ == base_->version()) {
    return;  // already staged against the current base state
  }
  attr_ = attr;
  value_ = value;
  staged_version_ = base_->version();
  staged_.clear();
  for (RuleId rule : base_->rules().RulesMentioning(attr)) {
    StagedRule sr;
    sr.rule = rule;
    sr.rs = &base_->stats_[static_cast<std::size_t>(rule)];
    sr.attr_in_lhs = sr.rs->attr_in_lhs[static_cast<std::size_t>(attr)] != 0;
    sr.attr_is_rhs = sr.rs->rhs_attr == attr;
    staged_.push_back(sr);
  }
}

bool HypotheticalBatch::HypMatchesContext(const RuleStats& rs,
                                          RowId row) const {
  for (std::size_t i = 0; i < rs.lhs_attrs.size(); ++i) {
    if (rs.lhs_consts[i] == kInvalidValueId) continue;
    const ValueId v = rs.lhs_attrs[i] == attr_
                          ? value_
                          : base_->table().id_at(row, rs.lhs_attrs[i]);
    if (v != rs.lhs_consts[i]) return false;
  }
  return true;
}

HypotheticalBatch::Effect HypotheticalBatch::Probe(std::size_t k, RowId row) {
  const StagedRule& sr = staged_[k];
  const RuleStats& rs = *sr.rs;
  const Table& table = base_->table();

  // Deltas relative to the base aggregates; Probe assumes an effective
  // write (base value at (row, attr) ≠ staged value — the IsNoOp contract).
  std::int64_t d_vio = 0;  // vio(D^rj) − vio(D)
  std::int64_t d_vt = 0;   // violating-tuple delta
  std::int64_t d_ctx = 0;  // |D(φ)| delta
  Effect effect;

  if (rs.is_constant) {
    if (!sr.attr_in_lhs) {
      // attr is the RHS only: the context cannot move. In context, the
      // row's violation flag flips to (value ≠ tp[A]).
      if (base_->MatchesContext(rs, row)) {
        const std::int64_t old_vio = rs.ViolatesFlag(row) ? 1 : 0;
        const std::int64_t new_vio = value_ != rs.rhs_const ? 1 : 0;
        d_vio = new_vio - old_vio;
        d_vt = d_vio;
        effect.violates_after = new_vio != 0;
      }
    } else {
      // attr sits in X (and possibly is also the RHS): both the context
      // and the violation flag are re-derived under hypothetical values.
      const std::int64_t old_ctx = base_->MatchesContext(rs, row) ? 1 : 0;
      const std::int64_t old_vio = rs.ViolatesFlag(row) ? 1 : 0;
      const bool new_ctx = HypMatchesContext(rs, row);
      std::int64_t new_vio = 0;
      if (new_ctx) {
        const ValueId rhs =
            sr.attr_is_rhs ? value_ : table.id_at(row, rs.rhs_attr);
        new_vio = rhs != rs.rhs_const ? 1 : 0;
      }
      d_vio = new_vio - old_vio;
      d_vt = d_vio;
      d_ctx = (new_ctx ? 1 : 0) - old_ctx;
      effect.violates_after = new_vio != 0;
    }
  } else if (!sr.attr_in_lhs) {
    // Variable rule, attr is the RHS: the row stays in its group (if any);
    // within it one b_old is swapped for the staged value. With group size
    // n, c_old = count(b_old), c_new = count(value): the pair-violation
    // sum n² − Σc² moves by 2(c_old − c_new) − 2, and the violating-tuple
    // count is n iff the group still holds ≥ 2 distinct values.
    const GroupId gid = rs.GroupIdOf(row);
    effect.own_group = gid;
    if (gid != kNoGroup) {
      const GroupCounts& g = rs.groups[static_cast<std::size_t>(gid)];
      const std::int64_t n = g.total;
      const std::int64_t c_old = g.CountOf(table.id_at(row, rs.rhs_attr));
      const std::int64_t c_new = g.CountOf(value_);
      d_vio = 2 * (c_old - c_new) - 2;
      const std::int64_t d0 = g.Distinct();
      const std::int64_t d_after =
          d0 - (c_old == 1 ? 1 : 0) + (c_new == 0 ? 1 : 0);
      d_vt = (d_after > 1 ? n : 0) - (d0 > 1 ? n : 0);
      // The row's n − 1 group mates, c_new of them holding the value.
      effect.violates_after = n - 1 - c_new > 0;
    }
  } else {
    // Variable rule, attr in X: the write moves the row's LHS key, so the
    // row leaves its current group and (context permitting) joins the
    // group of the hypothetical key — never the same group, since the key
    // differs at the written component.
    const ValueId b_rm = table.id_at(row, rs.rhs_attr);
    const GroupId gid = rs.GroupIdOf(row);
    effect.own_group = gid;
    if (gid != kNoGroup) {
      // Leave: group (n, Σc², d0 distinct) loses one b_rm. Pair
      // violations move by (n−1)² − (Σc² − 2c + 1) minus n² − Σc²,
      // i.e. 2(c − n).
      const GroupCounts& g = rs.groups[static_cast<std::size_t>(gid)];
      const std::int64_t n = g.total;
      const std::int64_t c = g.CountOf(b_rm);
      const std::int64_t d0 = g.Distinct();
      const std::int64_t d1 = d0 - (c == 1 ? 1 : 0);
      d_vio += 2 * (c - n);
      d_vt += (d1 > 1 ? n - 1 : 0) - (d0 > 1 ? n : 0);
      d_ctx -= 1;
    }
    if (HypMatchesContext(rs, row)) {
      d_ctx += 1;
      key_scratch_.resize(rs.lhs_attrs.size());
      for (std::size_t i = 0; i < rs.lhs_attrs.size(); ++i) {
        key_scratch_[i] = rs.lhs_attrs[i] == attr_
                              ? value_
                              : table.id_at(row, rs.lhs_attrs[i]);
      }
      effect.key_group = kAbsentGroup;
      if (const GroupId* found = rs.key_to_group.Find(key_scratch_)) {
        // Join: target group (n, Σc², d0) gains one b_add. Pair
        // violations move by 2(n − c). A miss means a novel singleton
        // group — zero pairs, one distinct value, nothing to add.
        effect.key_group = *found;
        const GroupCounts& g2 = rs.groups[static_cast<std::size_t>(*found)];
        const ValueId b_add = sr.attr_is_rhs ? value_ : b_rm;
        const std::int64_t n = g2.total;
        const std::int64_t c = g2.CountOf(b_add);
        const std::int64_t d0 = g2.Distinct();
        const std::int64_t d_after = d0 + (c == 0 ? 1 : 0);
        d_vio += 2 * (n - c);
        d_vt += (d_after > 1 ? n + 1 : 0) - (d0 > 1 ? n : 0);
        effect.violates_after = n - c > 0;
      }
    }
  }

  effect.adjustment = d_vio;
  effect.d_sat = d_ctx - d_vt;
  effect.satisfying =
      (rs.context_count + d_ctx) - (rs.violating_tuples + d_vt);
  return effect;
}

}  // namespace gdr
