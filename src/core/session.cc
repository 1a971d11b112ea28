#include "core/session.h"

#include <algorithm>
#include <span>
#include <sstream>
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

// ---------------------------------------------------------------------------
// SessionSnapshot wire format
// ---------------------------------------------------------------------------

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

constexpr char kSnapshotMagic[] = "GDRSNAP";
// Version 2 added the append ("A") event for streaming admissions;
// version 3 added the trailing "end" marker, which is how Deserialize
// distinguishes a complete snapshot from a truncated prefix (a crash
// mid-write used to be able to produce a prefix that still parsed, with a
// silently shortened last value). Version-1/2 snapshots (no marker) still
// deserialize.
constexpr int kSnapshotVersion = 3;

// Unread bytes of `in`: the ceiling for any count a snapshot declares, so
// a corrupt count fails as InvalidArgument instead of a huge allocation.
std::size_t BytesLeft(std::istringstream& in) {
  return static_cast<std::size_t>(
      std::max<std::streamsize>(0, in.rdbuf()->in_avail()));
}

}  // namespace

std::string SessionSnapshot::Serialize() const {
  std::ostringstream out;
  out.precision(17);  // doubles round-trip exactly at 17 significant digits
  out << kSnapshotMagic << " " << kSnapshotVersion << "\n";
  out << "strategy " << StrategyName(strategy) << "\n";
  out << "seed " << seed << "\n";
  out << "budget " << feedback_budget << "\n";
  out << "ns " << ns << "\n";
  out << "max_outer " << max_outer_iterations << "\n";
  out << "sweep_passes " << learner_sweep_passes << "\n";
  out << "max_uncertainty " << learner_max_uncertainty << "\n";
  out << "min_accuracy " << learner_min_accuracy << "\n";
  out << "events " << events.size() << "\n";
  for (const Event& event : events) {
    if (event.kind == Event::Kind::kPull) {
      out << "P\n";
      continue;
    }
    if (event.kind == Event::Kind::kAppend) {
      // Rows are recorded verbatim so replay re-appends exactly what the
      // live session ingested; arity is uniform (AppendRows validated it).
      const std::size_t arity = event.rows.empty() ? 0 : event.rows[0].size();
      out << "A " << event.rows.size() << " " << arity << " "
          << event.newly_dirty << "\n";
      for (const std::vector<std::string>& row : event.rows) {
        for (std::size_t a = 0; a < row.size(); ++a) {
          if (a > 0) out << " ";
          // Any byte is legal in a cell value.
          out << "V" << EncodeHex(row[a]);
        }
        out << "\n";
      }
      continue;
    }
    out << "S " << event.update_id << " " << static_cast<int>(event.feedback)
        << " " << (event.applied ? "A" : "X") << " ";
    if (event.has_value) {
      out << "V" << EncodeHex(event.value);
    } else {
      out << "-";
    }
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

Result<SessionSnapshot> SessionSnapshot::Deserialize(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a GDR session snapshot");
  }
  if (version < 1 || version > kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  SessionSnapshot snapshot;
  std::string key, strategy_name;
  unsigned long long seed = 0, budget = 0;
  std::size_t num_events = 0;
  if (!(in >> key >> strategy_name) || key != "strategy" ||
      !(in >> key >> seed) || key != "seed" ||          //
      !(in >> key >> budget) || key != "budget" ||      //
      !(in >> key >> snapshot.ns) || key != "ns" ||     //
      !(in >> key >> snapshot.max_outer_iterations) || key != "max_outer" ||
      !(in >> key >> snapshot.learner_sweep_passes) ||
      key != "sweep_passes" ||
      !(in >> key >> snapshot.learner_max_uncertainty) ||
      key != "max_uncertainty" ||
      !(in >> key >> snapshot.learner_min_accuracy) ||
      key != "min_accuracy" ||
      !(in >> key >> num_events) || key != "events") {
    return Status::InvalidArgument("malformed snapshot header");
  }
  GDR_ASSIGN_OR_RETURN(snapshot.strategy, StrategyFromName(strategy_name));
  snapshot.seed = seed;
  snapshot.feedback_budget = static_cast<std::size_t>(budget);
  // Every event takes at least two bytes ("P\n").
  if (num_events > BytesLeft(in) / 2) {
    return Status::InvalidArgument("snapshot declares " +
                                   std::to_string(num_events) +
                                   " events, more than its bytes can hold");
  }
  snapshot.events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    std::string tag;
    if (!(in >> tag)) {
      return Status::InvalidArgument("snapshot truncated: expected " +
                                     std::to_string(num_events) + " events");
    }
    Event event;
    if (tag == "P") {
      event.kind = Event::Kind::kPull;
    } else if (tag == "S") {
      event.kind = Event::Kind::kSubmit;
      int feedback = -1;
      std::string applied, payload;
      if (!(in >> event.update_id >> feedback >> applied >> payload) ||
          feedback < 0 || feedback >= kNumFeedbackClasses ||
          (applied != "A" && applied != "X")) {
        return Status::InvalidArgument("malformed submit event");
      }
      event.feedback = static_cast<Feedback>(feedback);
      event.applied = applied == "A";
      if (payload != "-") {
        if (payload.front() != 'V' ||
            !DecodeHex(std::string_view(payload).substr(1), &event.value)) {
          return Status::InvalidArgument("malformed volunteered value");
        }
        event.has_value = true;
      }
    } else if (tag == "A") {
      event.kind = Event::Kind::kAppend;
      std::size_t num_rows = 0, arity = 0;
      if (!(in >> num_rows >> arity >> event.newly_dirty)) {
        return Status::InvalidArgument("malformed append event");
      }
      // Every row ends in a newline and every cell takes at least two
      // bytes ("V" plus a separator).
      const std::size_t left = BytesLeft(in);
      if (num_rows > left || (arity > 0 && num_rows > left / 2 / arity)) {
        return Status::InvalidArgument(
            "append event declares more cells than the snapshot holds");
      }
      event.rows.assign(num_rows, std::vector<std::string>(arity));
      for (std::vector<std::string>& row : event.rows) {
        for (std::string& cell : row) {
          std::string token;
          if (!(in >> token) || token.front() != 'V' ||
              !DecodeHex(std::string_view(token).substr(1), &cell)) {
            return Status::InvalidArgument("malformed append event cell");
          }
        }
      }
    } else {
      return Status::InvalidArgument("unknown snapshot event tag '" + tag +
                                     "'");
    }
    snapshot.events.push_back(std::move(event));
  }
  if (version >= 3) {
    // The explicit terminator is the truncation check: without it, a
    // prefix cut inside the last event's hex payload could parse as a
    // complete snapshot with a silently corrupted value.
    std::string terminator;
    if (!(in >> terminator) || terminator != "end") {
      return Status::InvalidArgument(
          "snapshot truncated: missing 'end' marker after events");
    }
  }
  return snapshot;
}

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
  SessionSnapshot::Event pull;
  pull.kind = SessionSnapshot::Event::Kind::kPull;
  log_.push_back(pull);
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
    // On failure the entry stays unresolved and unlogged: the submission
    // is retryable and a snapshot never records a half-applied answer.
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
  log_.push_back(SessionSnapshot::Event{
      .kind = SessionSnapshot::Event::Kind::kSubmit,
      .update_id = update_id,
      .feedback = feedback,
      .applied = outcome == FeedbackOutcome::kApplied,
      .has_value = suggested_value.has_value(),
      .value = suggested_value.value_or(std::string()),
      .rows = {},
      .newly_dirty = 0});
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
  if (rows.empty()) return outcome;  // nothing ingested, nothing logged
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

  SessionSnapshot::Event event;
  event.kind = SessionSnapshot::Event::Kind::kAppend;
  event.rows = rows;
  event.newly_dirty = outcome.newly_dirty;
  log_.push_back(std::move(event));
  return outcome;
}

void GdrSession::RefreshPickedGroup() {
  const ScopedTimer timer(&engine_->stats_.timings.grouping_seconds);
  for (UpdateGroup& group : GroupUpdates(*engine_->pool_)) {
    if (group.attr == picked_.attr && group.value == picked_.value) {
      picked_ = std::move(group);
      return;
    }
  }
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
    ranking = engine.voi_->Rank(
        groups, [&engine](std::span<const Update> updates,
                          std::vector<double>* out) {
          engine.bank_->ConfirmProbabilities(updates, out);
        });
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
  snapshot.events = log_;
  return snapshot;
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
  // Replay mutates the table in place and grows engine state event by
  // event, so a snapshot that diverges mid-replay (corrupted file, table
  // not reloaded in its original dirty state) would otherwise strand the
  // session half-replayed. Save the pristine dirty instance up front; on
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
  GDR_RETURN_NOT_OK(Start());
  const GdrStats& stats = engine_->stats_;
  if (stats.user_feedback != 0 || stats.learner_decisions != 0 ||
      stats.outer_iterations != 0 || stats.forced_repairs != 0) {
    return Status::FailedPrecondition(
        "Restore() requires a pristine engine over the original dirty "
        "table");
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
  log_.clear();
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
