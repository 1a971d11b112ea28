#include "core/session.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/stopwatch.h"
#include "util/strings.h"

namespace gdr {

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kAwaitingFeedback:
      return "awaiting-feedback";
    case SessionState::kRanking:
      return "ranking";
    case SessionState::kDone:
      return "done";
  }
  return "unknown";
}

namespace {

// Accumulates its scope's elapsed wall-clock into *sink on destruction,
// so every early return of a step function is accounted for.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() { *sink_ += watch_.ElapsedSeconds(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Stopwatch watch_;
  double* sink_;
};

}  // namespace

// ---------------------------------------------------------------------------
// GdrSession
// ---------------------------------------------------------------------------

GdrSession::GdrSession(Table* table, const RuleSet* rules, GdrOptions options)
    : engine_(std::make_unique<GdrEngine>(table, rules, std::move(options))) {}

GdrSession::~GdrSession() = default;

void GdrSession::SetProgressCallback(GdrEngine::ProgressCallback callback) {
  callback_ = std::move(callback);
}

bool GdrSession::RanksByVoi() const {
  const Strategy s = engine_->options_.strategy;
  return s == Strategy::kGdr || s == Strategy::kGdrSLearning ||
         s == Strategy::kGdrNoLearning;
}

Status GdrSession::Start() {
  if (phase_ != Phase::kNotStarted) {
    return Status::FailedPrecondition("session already started");
  }
  if (!engine_->initialized_) {
    const Table& table = *engine_->table_;
    base_rows_ = table.num_rows();
    base_domain_.resize(table.num_attrs());
    for (std::size_t a = 0; a < base_domain_.size(); ++a) {
      base_domain_[a] = table.DomainSize(static_cast<AttrId>(a));
    }
    GDR_RETURN_NOT_OK(engine_->Initialize());
  }
  iterations_ = 0;
  phase_ = engine_->options_.strategy == Strategy::kActiveLearning
               ? Phase::kAlRoundStart
               : Phase::kIterationStart;
  state_ = SessionState::kRanking;
  return Status::OK();
}

Result<std::vector<SuggestedUpdate>> GdrSession::NextBatch() {
  if (phase_ == Phase::kNotStarted) {
    return Status::FailedPrecondition("call Start() before NextBatch()");
  }
  std::vector<SuggestedUpdate> batch;
  if (state_ == SessionState::kDone) return batch;
  const ScopedTimer timer(&engine_->stats_.timings.total_seconds);
  state_ = SessionState::kRanking;
  GDR_RETURN_NOT_OK(Advance(&batch));
  return batch;
}

Result<FeedbackOutcome> GdrSession::SubmitFeedback(
    std::uint64_t update_id, Feedback feedback,
    std::optional<std::string> suggested_value) {
  if (phase_ == Phase::kNotStarted) {
    return Status::FailedPrecondition("call Start() before SubmitFeedback()");
  }
  OutstandingEntry* entry = nullptr;
  for (OutstandingEntry& candidate : outstanding_) {
    if (candidate.suggestion.update_id == update_id) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) return FeedbackOutcome::kUnknownId;
  if (entry->resolved) return FeedbackOutcome::kDuplicate;

  const ScopedTimer session_timer(
      &engine_->stats_.timings.session_seconds);
  const ScopedTimer total_timer(&engine_->stats_.timings.total_seconds);
  FeedbackOutcome outcome;
  if (!engine_->pool_->IsLive(entry->suggestion.update)) {
    // Retired or replaced by a cascade from an earlier answer in this
    // batch: nothing is consumed and the user is never asked about it.
    outcome = FeedbackOutcome::kStale;
  } else {
    const Status applied = engine_->ApplyUserFeedback(
        entry->suggestion.update, feedback, suggested_value,
        replaying_ ? GdrEngine::ProgressCallback() : callback_);
    // On failure the entry stays unresolved: the submission is retryable
    // and a snapshot never holds a half-applied answer.
    if (!applied.ok()) return applied;
    if (engine_->options_.strategy == Strategy::kActiveLearning) {
      ++labeled_in_round_;
      touched_attrs_.push_back(entry->suggestion.update.attr);
    } else {
      ++labeled_in_group_;
    }
    outcome = FeedbackOutcome::kApplied;
  }
  entry->resolved = true;
  ++resolved_count_;
  if (resolved_count_ == outstanding_.size()) {
    // The batch is fully answered; machine steps (retrain, reorder, group
    // transition) run on the next pull.
    state_ = SessionState::kRanking;
  }
  return outcome;
}

Result<SessionAppendOutcome> GdrSession::AppendDirtyRows(
    const std::vector<std::vector<std::string>>& rows) {
  if (phase_ == Phase::kNotStarted) {
    return Status::FailedPrecondition(
        "call Start() before AppendDirtyRows()");
  }
  SessionAppendOutcome outcome;
  if (rows.empty()) return outcome;  // nothing ingested
  GdrEngine& engine = *engine_;
  const ScopedTimer total_timer(&engine.stats_.timings.total_seconds);
  const std::int64_t pool_before =
      static_cast<std::int64_t>(engine.pool_->size());
  GDR_ASSIGN_OR_RETURN(const GdrEngine::AppendOutcome admitted,
                       engine.AppendDirtyRows(rows));
  outcome.rows_appended = admitted.rows;
  outcome.newly_dirty = admitted.newly_dirty;
  outcome.pool_delta =
      static_cast<std::int64_t>(engine.pool_->size()) - pool_before;

  if (outcome.newly_dirty > 0 || outcome.pool_delta != 0) {
    // The admission must count as progress in the no-progress epilogues:
    // the admitted groups deserve an iteration before the loop may end.
    admitted_since_iteration_ = true;
    // A grouped iteration is in flight: admitted updates that join the
    // picked (attr, value) enter its remaining rounds.
    if (phase_ == Phase::kBatchOut) RefreshPickedGroup();
  }
  if (state_ == SessionState::kDone && engine.manager_->HasDirtyRows() &&
      !engine.pool_->empty()) {
    // The appends introduced dirt after completion: re-arm the loop. The
    // next pull re-checks budget and iteration limits as usual.
    phase_ = engine.options_.strategy == Strategy::kActiveLearning
                 ? Phase::kAlRoundStart
                 : Phase::kIterationStart;
    state_ = SessionState::kRanking;
    outcome.revived = true;
  }
  return outcome;
}

void GdrSession::RefreshPickedGroup() {
  const ScopedTimer timer(&engine_->stats_.timings.grouping_seconds);
  std::vector<Update> updates =
      engine_->pool_->GroupOf(picked_.attr, picked_.value);
  if (!updates.empty()) picked_.updates = std::move(updates);
}

bool GdrSession::IsLive(std::uint64_t update_id) const {
  for (const OutstandingEntry& entry : outstanding_) {
    if (entry.suggestion.update_id == update_id) {
      return !entry.resolved && engine_->pool_->IsLive(entry.suggestion.update);
    }
  }
  return false;
}

std::vector<SuggestedUpdate> GdrSession::Outstanding() const {
  std::vector<SuggestedUpdate> pending;
  for (const OutstandingEntry& entry : outstanding_) {
    if (!entry.resolved) pending.push_back(entry.suggestion);
  }
  return pending;
}

Status GdrSession::Advance(std::vector<SuggestedUpdate>* batch) {
  while (true) {
    switch (phase_) {
      case Phase::kNotStarted:
        return Status::FailedPrecondition("session not started");
      case Phase::kIterationStart:
        GDR_RETURN_NOT_OK(StepIterationStart());
        break;
      case Phase::kRoundStart:
        GDR_RETURN_NOT_OK(StepRoundStart(batch));
        if (!batch->empty()) return Status::OK();
        break;
      case Phase::kBatchOut:
        // Pulled again with suggestions unresolved: abandon the remainder
        // (they stay pooled and will be re-presented) and close the round.
        phase_ = Phase::kRoundEnd;
        break;
      case Phase::kRoundEnd:
        GDR_RETURN_NOT_OK(StepRoundEnd());
        break;
      case Phase::kTakeOver:
        GDR_RETURN_NOT_OK(StepTakeOver());
        break;
      case Phase::kAlRoundStart:
        GDR_RETURN_NOT_OK(StepAlRoundStart(batch));
        if (!batch->empty()) return Status::OK();
        break;
      case Phase::kAlBatchOut:
        phase_ = Phase::kAlRoundEnd;
        break;
      case Phase::kAlRoundEnd:
        GDR_RETURN_NOT_OK(StepAlRoundEnd());
        break;
      case Phase::kFinalSweep:
        GDR_RETURN_NOT_OK(StepFinalSweep());
        return Status::OK();
      case Phase::kDone:
        return Status::OK();
    }
  }
}

Status GdrSession::StepIterationStart() {
  GdrEngine& engine = *engine_;
  if (!(iterations_ < engine.options_.max_outer_iterations &&
        engine.manager_->HasDirtyRows() && !engine.pool_->empty() &&
        engine.UserBudgetLeft())) {
    phase_ = Phase::kFinalSweep;
    return Status::OK();
  }
  ++iterations_;
  ++engine.stats_.outer_iterations;

  const Stopwatch grouping_watch;
  std::vector<UpdateGroup> groups = GroupUpdates(*engine.pool_);
  engine.stats_.timings.grouping_seconds += grouping_watch.ElapsedSeconds();
  if (groups.empty()) {
    phase_ = Phase::kFinalSweep;
    return Status::OK();
  }
  VoiRanker::Ranking ranking;
  if (RanksByVoi()) {
    const Stopwatch ranking_watch;
    ranking = engine.voi_->Rank(groups, *engine.bank_);
    engine.stats_.timings.ranking_seconds += ranking_watch.ElapsedSeconds();
    engine.SyncPerfTimings();
  }
  std::size_t picked = 0;
  double gmax = 0.0;
  if (!engine.PickGroup(groups, ranking, &picked, &gmax)) {
    phase_ = Phase::kFinalSweep;
    return Status::OK();
  }
  group_score_ = RanksByVoi() ? ranking.scores[picked] : 0.0;
  picked_ = std::move(groups[picked]);
  quota_ = engine.GroupQuota(picked_, group_score_, gmax);
  labeled_in_group_ = 0;
  before_feedback_ = engine.stats_.user_feedback;
  before_decisions_ = engine.stats_.learner_decisions;
  admitted_since_iteration_ = false;
  phase_ = Phase::kRoundStart;
  return Status::OK();
}

Status GdrSession::StepRoundStart(std::vector<SuggestedUpdate>* batch) {
  GdrEngine& engine = *engine_;
  const ScopedTimer timer(&engine.stats_.timings.session_seconds);
  if (!(labeled_in_group_ < quota_ && engine.UserBudgetLeft())) {
    phase_ = Phase::kTakeOver;
    return Status::OK();
  }
  std::vector<Update> live = engine.LiveGroupUpdates(picked_);
  if (live.empty()) {
    phase_ = Phase::kTakeOver;
    return Status::OK();
  }
  std::vector<double> uncertainties;
  engine.OrderForSession(&live, &uncertainties);
  const std::size_t count = std::min(
      {static_cast<std::size_t>(engine.options_.ns),
       quota_ - labeled_in_group_,
       engine.options_.feedback_budget - engine.stats_.user_feedback,
       live.size()});
  if (count == 0) {
    phase_ = Phase::kTakeOver;
    return Status::OK();
  }
  DeliverBatch(live, std::move(uncertainties), count, picked_.attr,
               picked_.value, group_score_, batch);
  phase_ = Phase::kBatchOut;
  state_ = SessionState::kAwaitingFeedback;
  return Status::OK();
}

Status GdrSession::StepRoundEnd() {
  GdrEngine& engine = *engine_;
  const ScopedTimer timer(&engine.stats_.timings.session_seconds);
  outstanding_.clear();
  resolved_count_ = 0;
  Status status = Status::OK();
  if (engine.UsesLearner()) {
    status = engine.bank_->Retrain(picked_.attr);
    engine.SyncPerfTimings();
  }
  phase_ = Phase::kRoundStart;
  return status;
}

Status GdrSession::StepTakeOver() {
  GdrEngine& engine = *engine_;
  const ScopedTimer timer(&engine.stats_.timings.session_seconds);
  const Status status =
      engine.TakeOverGroup(picked_, replaying_ ? GdrEngine::ProgressCallback()
                                               : callback_);
  // Iteration epilogue: a group session that produced neither user
  // feedback nor learner decisions cannot make progress (every suggestion
  // went stale); terminate rather than loop. A mid-iteration admission
  // counts as progress — the admitted groups have not been presented yet.
  if (engine.stats_.user_feedback == before_feedback_ &&
      engine.stats_.learner_decisions == before_decisions_ &&
      !admitted_since_iteration_) {
    phase_ = Phase::kFinalSweep;
  } else {
    phase_ = Phase::kIterationStart;
  }
  return status;
}

Status GdrSession::StepAlRoundStart(std::vector<SuggestedUpdate>* batch) {
  GdrEngine& engine = *engine_;
  const ScopedTimer timer(&engine.stats_.timings.session_seconds);
  if (!(engine.UserBudgetLeft() && !engine.pool_->empty() &&
        engine.manager_->HasDirtyRows())) {
    phase_ = Phase::kFinalSweep;
    return Status::OK();
  }
  std::vector<Update> live = engine.pool_->All();
  std::vector<double> uncertainties;
  engine.OrderForSession(&live, &uncertainties);
  const std::size_t count = std::min(
      {static_cast<std::size_t>(engine.options_.ns),
       engine.options_.feedback_budget - engine.stats_.user_feedback,
       live.size()});
  if (count == 0) {
    phase_ = Phase::kFinalSweep;
    return Status::OK();
  }
  labeled_in_round_ = 0;
  touched_attrs_.clear();
  admitted_since_iteration_ = false;
  // Ungrouped: each suggestion is presented under its own cell.
  DeliverBatch(live, std::move(uncertainties), count, kInvalidAttrId,
               kInvalidValueId, 0.0, batch);
  phase_ = Phase::kAlBatchOut;
  state_ = SessionState::kAwaitingFeedback;
  return Status::OK();
}

Status GdrSession::StepAlRoundEnd() {
  GdrEngine& engine = *engine_;
  const ScopedTimer timer(&engine.stats_.timings.session_seconds);
  // Distinguish abandonment from exhaustion before discarding the batch:
  // an unresolved suggestion that is *still live* means the caller walked
  // away from it (pulled again without answering) — it must be
  // re-presented, not treated as the all-stale termination signal. A
  // pumped session never leaves live suggestions unresolved, so this
  // branch cannot affect PumpSession.
  bool abandoned_live = false;
  for (const OutstandingEntry& entry : outstanding_) {
    if (!entry.resolved && engine.pool_->IsLive(entry.suggestion.update)) {
      abandoned_live = true;
      break;
    }
  }
  outstanding_.clear();
  resolved_count_ = 0;
  if (labeled_in_round_ == 0) {
    if (abandoned_live || admitted_since_iteration_) {
      // Nothing was consumed, but either live suggestions were walked away
      // from or an admission refreshed the pool; re-rank and re-present.
      phase_ = Phase::kAlRoundStart;
    } else {
      // A whole round without a single consumable label: the pool has
      // gone entirely stale relative to the ordering; stop asking.
      phase_ = Phase::kFinalSweep;
    }
    return Status::OK();
  }
  std::sort(touched_attrs_.begin(), touched_attrs_.end());
  touched_attrs_.erase(
      std::unique(touched_attrs_.begin(), touched_attrs_.end()),
      touched_attrs_.end());
  for (AttrId attr : touched_attrs_) {
    GDR_RETURN_NOT_OK(engine.bank_->Retrain(attr));
  }
  engine.SyncPerfTimings();
  ++engine.stats_.outer_iterations;
  phase_ = Phase::kAlRoundStart;
  return Status::OK();
}

Status GdrSession::StepFinalSweep() {
  GdrEngine& engine = *engine_;
  // Active-Learning always ends with a sweep; grouped learning strategies
  // sweep only when the loop ended because the user budget ran out.
  const bool sweeps =
      engine.options_.strategy == Strategy::kActiveLearning ||
      (engine.UsesLearner() && !engine.UserBudgetLeft());
  Status status = Status::OK();
  if (sweeps) {
    status = engine.LearnerSweep(replaying_ ? GdrEngine::ProgressCallback()
                                            : callback_);
  }
  phase_ = Phase::kDone;
  state_ = SessionState::kDone;
  return status;
}

void GdrSession::DeliverBatch(const std::vector<Update>& live,
                              std::vector<double> uncertainties,
                              std::size_t count, AttrId group_attr,
                              ValueId group_value, double voi_score,
                              std::vector<SuggestedUpdate>* batch) {
  const GdrEngine& engine = *engine_;
  if (uncertainties.empty()) {
    engine.bank_->Uncertainties(
        std::span<const Update>(live.data(), count), &uncertainties);
  }
  outstanding_.clear();
  resolved_count_ = 0;
  const std::size_t remaining =
      engine.options_.feedback_budget == GdrOptions::kUnlimitedBudget
          ? GdrOptions::kUnlimitedBudget
          : engine.options_.feedback_budget - engine.stats_.user_feedback;
  outstanding_.reserve(count);
  batch->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SuggestedUpdate suggestion;
    suggestion.update_id = next_update_id_++;
    suggestion.update = live[i];
    suggestion.group_attr =
        group_attr == kInvalidAttrId ? live[i].attr : group_attr;
    suggestion.group_value =
        group_attr == kInvalidAttrId ? live[i].value : group_value;
    suggestion.voi_score = voi_score;
    suggestion.uncertainty = uncertainties[i];
    suggestion.budget_remaining = remaining;
    outstanding_.push_back(OutstandingEntry{suggestion, false});
    batch->push_back(suggestion);
  }
}

namespace {

// FNV-1a over the original dirty instance as far as a checkpoint leaves
// it readable: its dictionaries' first base_domain[a] values and every
// cell of its first base_rows rows outside `frozen` (ascending by (row,
// attr)) — the cells the session never wrote.
std::uint64_t BaseDigest(const Table& table, std::size_t base_rows,
                         const std::vector<std::size_t>& base_domain,
                         const std::vector<SessionCheckpoint::Cell>& frozen) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    hash ^= word;
    hash *= 0x100000001B3ULL;
  };
  for (std::size_t a = 0; a < base_domain.size(); ++a) {
    const ValueDict& dict = table.dict(static_cast<AttrId>(a));
    for (std::size_t id = 0; id < base_domain[a]; ++id) {
      for (const char c : dict.ToString(static_cast<ValueId>(id))) {
        mix(static_cast<unsigned char>(c));
      }
      mix(0x100);  // value separator, outside the byte range
    }
  }
  auto next = frozen.begin();
  for (std::size_t r = 0; r < base_rows; ++r) {
    const RowId row = static_cast<RowId>(r);
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      if (next != frozen.end() && next->row == row && next->attr == attr) {
        ++next;
        continue;
      }
      mix(static_cast<std::uint64_t>(table.id_at(row, attr)));
    }
  }
  return hash;
}

}  // namespace

SessionCheckpoint GdrSession::SaveCheckpoint() const {
  const GdrEngine& engine = *engine_;
  const Table& table = *engine.table_;
  const std::size_t num_attrs = table.num_attrs();
  SessionCheckpoint cp;
  cp.base_rows = base_rows_;
  cp.base_domain = base_domain_;
  cp.interned.resize(num_attrs);
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const ValueDict& dict = table.dict(static_cast<AttrId>(a));
    for (std::size_t id = base_domain_[a]; id < dict.size(); ++id) {
      cp.interned[a].push_back(dict.ToString(static_cast<ValueId>(id)));
    }
  }
  for (std::size_t r = base_rows_; r < table.num_rows(); ++r) {
    std::vector<ValueId>& row = cp.appended.emplace_back(num_attrs);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      row[a] = table.id_at(static_cast<RowId>(r), static_cast<AttrId>(a));
    }
  }
  for (const CellKey& cell : engine.state_->FrozenCells()) {
    cp.frozen.push_back({cell.row, cell.attr, table.id_at(cell.row, cell.attr)});
  }
  for (const auto& [cell, value] : engine.state_->PreventedValues()) {
    cp.prevented.push_back({cell.row, cell.attr, value});
  }
  cp.base_digest = BaseDigest(table, base_rows_, base_domain_, cp.frozen);

  cp.pool = engine.pool_->All();
  cp.dirty = engine.manager_->DirtyRows();
  cp.rule_weights = engine.weights_;
  cp.projections = engine.index_->RegisteredProjections();
  cp.rng = engine.rng_.state();
  cp.stats = engine.stats_;
  cp.stats.timings = GdrTimings{};
  cp.learner = engine.bank_->SaveState();

  cp.phase = static_cast<std::uint8_t>(phase_);
  cp.iterations = iterations_;
  cp.picked = picked_;
  cp.group_score = group_score_;
  cp.quota = quota_;
  cp.labeled_in_group = labeled_in_group_;
  cp.before_feedback = before_feedback_;
  cp.before_decisions = before_decisions_;
  cp.admitted_since_iteration = admitted_since_iteration_;
  cp.labeled_in_round = labeled_in_round_;
  cp.touched_attrs = touched_attrs_;
  cp.outstanding = outstanding_;
  cp.next_update_id = next_update_id_;
  return cp;
}

SessionSnapshot GdrSession::Snapshot() const {
  SessionSnapshot snapshot;
  const GdrOptions& options = engine_->options_;
  snapshot.strategy = options.strategy;
  snapshot.seed = options.seed;
  snapshot.feedback_budget = options.feedback_budget;
  snapshot.ns = options.ns;
  snapshot.max_outer_iterations = options.max_outer_iterations;
  snapshot.learner_sweep_passes = options.learner_sweep_passes;
  snapshot.learner_max_uncertainty = options.learner_max_uncertainty;
  snapshot.learner_min_accuracy = options.learner_min_accuracy;
  // A session that never started restores by starting: no checkpoint.
  if (phase_ != Phase::kNotStarted) snapshot.checkpoint = SaveCheckpoint();
  return snapshot;
}

Status GdrSession::LoadCheckpoint(const SessionCheckpoint& cp) {
  const Stopwatch watch;
  GdrEngine& engine = *engine_;
  Table& table = *engine.table_;
  const std::size_t num_attrs = table.num_attrs();
  const auto corrupt = [](const std::string& what) {
    return Status::InvalidArgument("snapshot checkpoint: " + what);
  };

  // 1. The original dirty table: same shape, and the same contents
  // wherever the session never wrote.
  if (cp.base_rows != table.num_rows() || cp.base_domain.size() != num_attrs ||
      cp.interned.size() != num_attrs) {
    return corrupt("the table's shape is not the original dirty instance's");
  }
  for (std::size_t a = 0; a < num_attrs; ++a) {
    if (cp.base_domain[a] != table.DomainSize(static_cast<AttrId>(a))) {
      return corrupt("the table's dictionaries are not the original's");
    }
  }
  if (BaseDigest(table, cp.base_rows, cp.base_domain, cp.frozen) !=
      cp.base_digest) {
    return corrupt("the table is not the original dirty instance");
  }

  // 2. The dictionary suffix, in id order; 3. the appended rows and the
  // written cells.
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    for (std::size_t i = 0; i < cp.interned[a].size(); ++i) {
      if (static_cast<std::size_t>(table.InternValue(attr, cp.interned[a][i])) !=
          cp.base_domain[a] + i) {
        return corrupt("an interned value repeats");
      }
    }
  }
  const auto valid_value = [&table, num_attrs](AttrId attr, ValueId value) {
    return attr >= 0 && static_cast<std::size_t>(attr) < num_attrs &&
           value >= 0 &&
           static_cast<std::size_t>(value) < table.DomainSize(attr);
  };
  const auto valid_update = [&table, &valid_value](const Update& u) {
    return u.row >= 0 && static_cast<std::size_t>(u.row) < table.num_rows() &&
           valid_value(u.attr, u.value);
  };
  std::vector<std::string> cells(num_attrs);
  for (const std::vector<ValueId>& row : cp.appended) {
    if (row.size() != num_attrs) return corrupt("bad appended row");
    for (std::size_t a = 0; a < num_attrs; ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      if (!valid_value(attr, row[a])) return corrupt("bad appended row");
      cells[a] = table.dict(attr).ToString(row[a]);  // interned: id kept
    }
    GDR_RETURN_NOT_OK(table.AppendRow(cells).status());
  }
  for (const SessionCheckpoint::Cell& c : cp.frozen) {
    if (!valid_update(Update{c.row, c.attr, c.value, 0.0})) {
      return corrupt("bad frozen cell");
    }
    table.SetById(c.row, c.attr, c.value);
  }

  // 4. The components, the index built once over the patched table. Its
  // constructor interns the rule constants, which the suffix already holds.
  engine.BuildComponents();
  for (std::size_t a = 0; a < num_attrs; ++a) {
    if (table.DomainSize(static_cast<AttrId>(a)) !=
        cp.base_domain[a] + cp.interned[a].size()) {
      return corrupt("rule constants missing from the interned values");
    }
  }

  // 5. Their state; the bank retrains each trained attribute once.
  for (const SessionCheckpoint::Cell& c : cp.frozen) {
    engine.state_->Freeze(CellKey{c.row, c.attr});
  }
  for (const SessionCheckpoint::Cell& c : cp.prevented) {
    if (!valid_update(Update{c.row, c.attr, c.value, 0.0})) {
      return corrupt("bad prevented value");
    }
    engine.state_->Prevent(CellKey{c.row, c.attr}, c.value);
  }
  for (const Update& u : cp.pool) {
    if (!valid_update(u)) return corrupt("bad pooled update");
    engine.pool_->Upsert(u);
  }
  for (RowId row : cp.dirty) {
    if (row < 0 || static_cast<std::size_t>(row) >= table.num_rows()) {
      return corrupt("bad dirty row");
    }
  }
  engine.manager_->RestoreDirtyRows(cp.dirty);
  if (cp.rule_weights.size() != engine.rules_->size()) {
    return corrupt("rule weights do not match the rule set");
  }
  engine.weights_ = cp.rule_weights;
  for (const auto& [rule, attr] : cp.projections) {
    if (rule < 0 || static_cast<std::size_t>(rule) >= engine.rules_->size() ||
        attr < 0 || static_cast<std::size_t>(attr) >= num_attrs) {
      return corrupt("bad projection");
    }
    engine.index_->RegisterProjection(rule, attr);
  }
  engine.rng_.set_state(cp.rng);
  engine.stats_ = cp.stats;
  engine.stats_.timings = GdrTimings{};
  GDR_RETURN_NOT_OK(engine.bank_->LoadState(cp.learner));
  engine.initialized_ = true;

  // 6. The loop position.
  const Phase phase = static_cast<Phase>(cp.phase);
  const bool active_learning =
      engine.options_.strategy == Strategy::kActiveLearning;
  switch (phase) {
    case Phase::kIterationStart:
    case Phase::kRoundStart:
    case Phase::kBatchOut:
    case Phase::kRoundEnd:
    case Phase::kTakeOver:
      if (active_learning) return corrupt("bad loop phase");
      break;
    case Phase::kAlRoundStart:
    case Phase::kAlBatchOut:
    case Phase::kAlRoundEnd:
      if (!active_learning) return corrupt("bad loop phase");
      break;
    case Phase::kFinalSweep:
    case Phase::kDone:
      break;
    default:
      return corrupt("bad loop phase");
  }
  const UpdateGroup& picked = cp.picked;
  if (!(picked.attr == kInvalidAttrId && picked.value == kInvalidValueId) &&
      !valid_value(picked.attr, picked.value)) {
    return corrupt("bad picked group");
  }
  for (const Update& u : picked.updates) {
    if (!valid_update(u)) return corrupt("bad picked group");
  }
  for (AttrId attr : cp.touched_attrs) {
    if (attr < 0 || static_cast<std::size_t>(attr) >= num_attrs) {
      return corrupt("bad touched attribute");
    }
  }
  resolved_count_ = 0;
  for (const OutstandingEntry& entry : cp.outstanding) {
    const SuggestedUpdate& s = entry.suggestion;
    if (!valid_update(s.update) || !valid_value(s.group_attr, s.group_value)) {
      return corrupt("bad outstanding suggestion");
    }
    if (entry.resolved) ++resolved_count_;
  }
  phase_ = phase;
  iterations_ = cp.iterations;
  picked_ = picked;
  group_score_ = cp.group_score;
  quota_ = cp.quota;
  labeled_in_group_ = cp.labeled_in_group;
  before_feedback_ = cp.before_feedback;
  before_decisions_ = cp.before_decisions;
  admitted_since_iteration_ = cp.admitted_since_iteration;
  labeled_in_round_ = cp.labeled_in_round;
  touched_attrs_ = cp.touched_attrs;
  outstanding_ = cp.outstanding;
  next_update_id_ = cp.next_update_id;
  base_rows_ = cp.base_rows;
  base_domain_ = cp.base_domain;
  const bool batch_out = phase == Phase::kBatchOut || phase == Phase::kAlBatchOut;
  state_ = phase == Phase::kDone ? SessionState::kDone
           : batch_out && resolved_count_ < outstanding_.size()
               ? SessionState::kAwaitingFeedback
               : SessionState::kRanking;
  engine.stats_.timings.init_seconds = watch.ElapsedSeconds();
  engine.SyncPerfTimings();
  return Status::OK();
}

Status GdrSession::Restore(const SessionSnapshot& snapshot) {
  if (phase_ != Phase::kNotStarted) {
    return Status::FailedPrecondition(
        "Restore() requires a session that has not been started");
  }
  const GdrOptions& options = engine_->options_;
  if (snapshot.strategy != options.strategy ||
      snapshot.seed != options.seed ||
      snapshot.feedback_budget != options.feedback_budget ||
      snapshot.ns != options.ns ||
      snapshot.max_outer_iterations != options.max_outer_iterations ||
      snapshot.learner_sweep_passes != options.learner_sweep_passes ||
      snapshot.learner_max_uncertainty != options.learner_max_uncertainty ||
      snapshot.learner_min_accuracy != options.learner_min_accuracy) {
    return Status::InvalidArgument(
        "snapshot was taken under different options: strategy, seed, ns, "
        "feedback_budget, max_outer_iterations, learner_sweep_passes, and "
        "the learner delegation thresholds must match");
  }
  // Loading a checkpoint and replaying a tail both mutate the table in
  // place, so a snapshot that fails partway (corrupted file, table not
  // reloaded in its original dirty state) would otherwise strand the
  // session half-restored. Save the pristine dirty instance up front; on
  // any failure, put the table back, rebuild a fresh engine over it, and
  // reset the loop to not-started — the session stays fully usable (a
  // subsequent Start() runs it as if the restore was never attempted).
  Table* table = engine_->table_;
  const RuleSet* rules = engine_->rules_;
  const GdrOptions saved_options = engine_->options_;
  Table pristine = *table;
  const Status replayed = ReplaySnapshot(snapshot);
  if (!replayed.ok()) {
    *table = std::move(pristine);
    engine_ = std::make_unique<GdrEngine>(table, rules, saved_options);
    ResetToNotStarted();
  }
  return replayed;
}

Status GdrSession::ReplaySnapshot(const SessionSnapshot& snapshot) {
  if (snapshot.checkpoint.has_value()) {
    GDR_RETURN_NOT_OK(LoadCheckpoint(*snapshot.checkpoint));
  } else {
    GDR_RETURN_NOT_OK(Start());
  }
  replaying_ = true;
  Status status = Status::OK();
  for (const SessionSnapshot::Event& event : snapshot.events) {
    if (event.kind == SessionSnapshot::Event::Kind::kPull) {
      if (state_ == SessionState::kDone) {
        status = Status::InvalidArgument(
            "snapshot replay diverged: pull recorded after completion "
            "(was the table reloaded in its original dirty state?)");
        break;
      }
      const Result<std::vector<SuggestedUpdate>> batch = NextBatch();
      if (!batch.ok()) {
        status = batch.status();
        break;
      }
    } else if (event.kind == SessionSnapshot::Event::Kind::kAppend) {
      const Result<SessionAppendOutcome> outcome =
          AppendDirtyRows(event.rows);
      if (!outcome.ok()) {
        status = outcome.status();
        break;
      }
      if (outcome->newly_dirty != event.newly_dirty) {
        status = Status::InvalidArgument(
            "snapshot replay diverged: a recorded append admitted a "
            "different number of dirty rows (was the table reloaded in "
            "its original dirty state?)");
        break;
      }
    } else {
      std::optional<std::string> value;
      if (event.has_value) value = event.value;
      const Result<FeedbackOutcome> outcome =
          SubmitFeedback(event.update_id, event.feedback, std::move(value));
      if (!outcome.ok()) {
        status = outcome.status();
        break;
      }
      if (*outcome == FeedbackOutcome::kUnknownId ||
          *outcome == FeedbackOutcome::kDuplicate ||
          (*outcome == FeedbackOutcome::kApplied) != event.applied) {
        status = Status::InvalidArgument(
            "snapshot replay diverged: a recorded submission did not match "
            "a delivered suggestion (was the table reloaded in its "
            "original dirty state?)");
        break;
      }
    }
  }
  replaying_ = false;
  return status;
}

void GdrSession::ResetToNotStarted() {
  state_ = SessionState::kRanking;
  phase_ = Phase::kNotStarted;
  iterations_ = 0;
  picked_ = UpdateGroup{};
  group_score_ = 0.0;
  quota_ = 0;
  labeled_in_group_ = 0;
  before_feedback_ = 0;
  before_decisions_ = 0;
  admitted_since_iteration_ = false;
  labeled_in_round_ = 0;
  touched_attrs_.clear();
  outstanding_.clear();
  resolved_count_ = 0;
  next_update_id_ = 1;
  base_rows_ = 0;
  base_domain_.clear();
  replaying_ = false;
}

Status PumpSession(GdrSession* session, FeedbackProvider* user) {
  if (user == nullptr) {
    return Status::InvalidArgument("PumpSession requires a FeedbackProvider");
  }
  while (session->state() != SessionState::kDone) {
    std::vector<SuggestedUpdate> batch;
    GDR_ASSIGN_OR_RETURN(batch, session->NextBatch());
    for (const SuggestedUpdate& suggestion : batch) {
      // An earlier answer in this batch may have retired this suggestion
      // via a consistency cascade; never ask the user about a dead one.
      if (!session->IsLive(suggestion.update_id)) continue;
      const Feedback feedback =
          user->GetFeedback(session->table(), suggestion.update);
      std::optional<std::string> volunteered;
      if (feedback == Feedback::kReject) {
        volunteered = user->SuggestValue(session->table(), suggestion.update);
      }
      GDR_RETURN_NOT_OK(
          session
              ->SubmitFeedback(suggestion.update_id, feedback,
                               std::move(volunteered))
              .status());
    }
  }
  return Status::OK();
}

}  // namespace gdr
