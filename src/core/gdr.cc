#include "core/gdr.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/quality.h"
#include "util/stopwatch.h"

namespace gdr {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kGdr:
      return "GDR";
    case Strategy::kGdrSLearning:
      return "GDR-S-Learning";
    case Strategy::kGdrNoLearning:
      return "GDR-NoLearning";
    case Strategy::kActiveLearning:
      return "Active-Learning";
    case Strategy::kGreedy:
      return "Greedy";
    case Strategy::kRandomRanking:
      return "Random";
  }
  return "unknown";
}

Result<Strategy> StrategyFromName(std::string_view name) {
  static constexpr Strategy kAll[] = {
      Strategy::kGdr,            Strategy::kGdrSLearning,
      Strategy::kGdrNoLearning,  Strategy::kActiveLearning,
      Strategy::kGreedy,         Strategy::kRandomRanking,
  };
  for (Strategy strategy : kAll) {
    if (name == StrategyName(strategy)) return strategy;
  }
  std::string known;
  for (Strategy strategy : kAll) {
    if (!known.empty()) known += ", ";
    known += StrategyName(strategy);
  }
  return Status::InvalidArgument("unknown strategy '" + std::string(name) +
                                 "' (expected one of: " + known + ")");
}

GdrEngine::GdrEngine(Table* table, const RuleSet* rules, GdrOptions options)
    : table_(table), rules_(rules), options_(options) {
  rng_.Seed(options_.seed);
}

Status GdrEngine::Initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("engine already initialized");
  }
  const Stopwatch init_watch;
  index_ = std::make_unique<ViolationIndex>(table_, rules_);
  pool_ = std::make_unique<UpdatePool>();
  state_ = std::make_unique<RepairState>();
  generator_ =
      std::make_unique<UpdateGenerator>(index_.get(), table_, state_.get());
  manager_ = std::make_unique<ConsistencyManager>(
      index_.get(), pool_.get(), state_.get(), generator_.get());
  LearnerBankOptions learner_options = options_.learner;
  learner_options.seed = options_.seed ^ 0x9E3779B97F4A7C15ULL;
  bank_ = std::make_unique<LearnerBank>(table_, index_.get(), learner_options);

  weights_ = ContextRuleWeights(*index_);
  voi_ = std::make_unique<VoiRanker>(index_.get(), &weights_);
  voi_->set_batch_probability_fn(
      [bank = bank_.get()](std::span<const Update> updates,
                           std::vector<double>* out) {
        bank->ConfirmProbabilities(updates, out);
      });

  stats_ = GdrStats{};
  stats_.initial_dirty = manager_->Initialize();
  stats_.timings.init_seconds = init_watch.ElapsedSeconds();
  initialized_ = true;
  return Status::OK();
}

void GdrEngine::SyncPerfTimings() {
  const PerfCounters& learner = bank_->perf_counters();
  const PerfCounters& voi = voi_->perf_counters();
  GdrTimings& timings = stats_.timings;
  timings.learner_encode_seconds = learner.Seconds(PerfPhase::kLearnerEncode);
  timings.learner_tree_walk_seconds =
      learner.Seconds(PerfPhase::kLearnerTreeWalk);
  timings.learner_inferences = learner.Count(PerfPhase::kLearnerTreeWalk);
  timings.learner_train_seconds = learner.Seconds(PerfPhase::kLearnerTrain);
  timings.learner_trains = learner.Count(PerfPhase::kLearnerTrain);
  timings.voi_probe_seconds = voi.Seconds(PerfPhase::kVoiProbe);
  timings.voi_probes = voi.Count(PerfPhase::kVoiProbe);
}

Result<GdrEngine::AppendOutcome> GdrEngine::AppendDirtyRows(
    const std::vector<std::vector<std::string>>& rows) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  AppendOutcome outcome;
  if (rows.empty()) return outcome;
  GDR_ASSIGN_OR_RETURN(outcome.first_row, index_->AppendRows(rows));
  outcome.rows = rows.size();
  outcome.newly_dirty = manager_->AdmitRows(outcome.first_row, rows.size());
  // |D| and every |D(φ)| moved; the Eq. 3 weights follow the live instance.
  weights_ = ContextRuleWeights(*index_);
  stats_.appended_rows += rows.size();
  stats_.admitted_dirty += outcome.newly_dirty;
  return outcome;
}

bool GdrEngine::PickGroup(const std::vector<UpdateGroup>& groups,
                          const VoiRanker::Ranking& ranking,
                          std::size_t* picked, double* gmax) const {
  if (groups.empty()) return false;
  *gmax = 0.0;
  switch (options_.strategy) {
    case Strategy::kGdr:
    case Strategy::kGdrSLearning:
    case Strategy::kGdrNoLearning: {
      *picked = ranking.order.front();
      *gmax = ranking.scores[ranking.order.front()];
      return true;
    }
    case Strategy::kGreedy: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < groups.size(); ++i) {
        if (groups[i].size() > groups[best].size()) best = i;
      }
      *picked = best;
      return true;
    }
    case Strategy::kRandomRanking: {
      *picked = static_cast<std::size_t>(rng_.NextBounded(groups.size()));
      return true;
    }
    case Strategy::kActiveLearning:
      return false;  // ungrouped: the session's AL phases drive it
  }
  return false;
}

std::size_t GdrEngine::GroupQuota(const UpdateGroup& group, double score,
                                  double gmax) const {
  if (options_.strategy == Strategy::kGdrNoLearning ||
      options_.strategy == Strategy::kGreedy ||
      options_.strategy == Strategy::kRandomRanking) {
    return group.size();  // every update is verified by the user
  }
  // d_i = E · (1 − g(c_i)/g_max): the more beneficial the group, the less
  // user effort it needs (Section 5.2). Clamped to at least one n_s round
  // so the learner keeps receiving labeled examples, and to the group size.
  double d = 0.0;
  if (gmax > 0.0) {
    d = static_cast<double>(stats_.initial_dirty) *
        (1.0 - std::max(0.0, score) / gmax);
  }
  const std::size_t floor_quota =
      std::min<std::size_t>(static_cast<std::size_t>(options_.ns),
                            group.size());
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::llround(d)),
                                 floor_quota, group.size());
}

std::vector<Update> GdrEngine::LiveGroupUpdates(
    const UpdateGroup& group) const {
  std::vector<Update> live;
  live.reserve(group.updates.size());
  for (const Update& u : group.updates) {
    if (pool_->IsLive(u)) live.push_back(u);
  }
  return live;
}

void GdrEngine::OrderForSession(std::vector<Update>* updates) {
  switch (options_.strategy) {
    case Strategy::kGdr:
    case Strategy::kActiveLearning: {
      // Uncertainty ordering (Section 4.2): most uncertain first; before a
      // model exists every update is maximally uncertain, so the repair
      // score breaks ties (higher first), then row for determinism.
      std::vector<std::pair<double, std::size_t>> keyed(updates->size());
      for (std::size_t i = 0; i < updates->size(); ++i) {
        keyed[i] = {bank_->UncertaintyOrMax((*updates)[i]), i};
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [updates](const auto& a, const auto& b) {
                         if (a.first != b.first) return a.first > b.first;
                         const Update& ua = (*updates)[a.second];
                         const Update& ub = (*updates)[b.second];
                         if (ua.score != ub.score) return ua.score > ub.score;
                         return ua.row < ub.row;
                       });
      std::vector<Update> ordered(updates->size());
      for (std::size_t i = 0; i < keyed.size(); ++i) {
        ordered[i] = (*updates)[keyed[i].second];
      }
      // Mix exploration into the head: every other slot of the first n_s
      // becomes a random representative pick, so the user's labels both
      // teach the model (uncertain cases) and validate its displayed
      // predictions on typical cases (the delegation gate needs an
      // unbiased sample to be meaningful).
      const std::size_t head =
          std::min<std::size_t>(static_cast<std::size_t>(options_.ns),
                                ordered.size());
      for (std::size_t i = 1; i < head; i += 2) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng_.NextBounded(ordered.size() - i));
        std::swap(ordered[i], ordered[j]);
      }
      *updates = std::move(ordered);
      break;
    }
    case Strategy::kGdrSLearning:
      rng_.Shuffle(*updates);  // passive learning: random selection
      break;
    case Strategy::kGdrNoLearning:
    case Strategy::kGreedy:
    case Strategy::kRandomRanking:
      break;  // user verifies everything; order is immaterial
  }
}

Status GdrEngine::ApplyUserFeedback(
    const Update& update, Feedback feedback,
    const std::optional<std::string>& volunteered,
    const ProgressCallback& callback) {
  // The session displays the learner's prediction next to each update
  // (Section 4.2); comparing it with the user's actual answer is how the
  // engine measures whether the user could safely delegate to the model.
  // The prediction must be evaluated before any mutation below: it has to
  // describe the tuple the user actually saw.
  std::optional<Feedback> predicted;
  if (UsesLearner() && bank_->IsTrained(update.attr)) {
    predicted = bank_->PredictFeedback(update);
  }
  if (UsesLearner()) {
    // The one failable step runs before any counter moves, so a failed
    // submission leaves the engine untouched and is safely retryable —
    // SubmitFeedback's contract. (The example must also be recorded
    // before the database mutates: features describe the tuple the user
    // actually saw.)
    GDR_RETURN_NOT_OK(bank_->AddFeedback(update, feedback));
  }
  if (predicted.has_value()) {
    bank_->RecordPredictionOutcome(update.attr, *predicted,
                                   *predicted == feedback);
  }
  ++stats_.user_feedback;
  switch (feedback) {
    case Feedback::kConfirm:
      ++stats_.user_confirms;
      break;
    case Feedback::kReject:
      ++stats_.user_rejects;
      break;
    case Feedback::kRetain:
      ++stats_.user_retains;
      break;
  }
  std::vector<AppliedChange> changes =
      manager_->ApplyFeedback(update, feedback);

  if (feedback == Feedback::kReject && volunteered.has_value()) {
    // Section 4.2: a rejecting user may volunteer the correct value v',
    // treated as confirming ⟨t, A, v', 1⟩. Ignored for other feedback.
    const ValueId v = table_->InternValue(update.attr, *volunteered);
    std::vector<AppliedChange> more =
        manager_->ApplyUserValue(update.row, update.attr, v);
    changes.insert(changes.end(), more.begin(), more.end());
    ++stats_.user_suggested_values;
  }
  for (const AppliedChange& change : changes) {
    if (change.forced) ++stats_.forced_repairs;
  }
  if (callback) callback(*this, stats_.user_feedback);
  return Status::OK();
}

Status GdrEngine::ApplyLearnerDecision(const Update& update,
                                       Feedback feedback) {
  ++stats_.learner_decisions;
  if (feedback == Feedback::kConfirm) ++stats_.learner_confirms;
  std::vector<AppliedChange> changes =
      manager_->ApplyFeedback(update, feedback);
  for (const AppliedChange& change : changes) {
    if (change.forced) ++stats_.forced_repairs;
  }
  return Status::OK();
}

Status GdrEngine::TakeOverGroup(const UpdateGroup& group,
                                const ProgressCallback& callback) {
  // The user is "satisfied with the learner predictions": the learned
  // model decides the group's remaining updates (Section 4.2) — but only
  // predictions of classes whose recent accuracy earned the delegation.
  if (!UsesLearner() || !bank_->IsTrained(group.attr)) return Status::OK();
  for (const Update& u : LiveGroupUpdates(group)) {
    // Re-validate: an earlier decision in this loop may have retired or
    // replaced later suggestions via the consistency manager.
    if (!pool_->IsLive(u)) continue;
    if (bank_->Uncertainty(u) > options_.learner_max_uncertainty) continue;
    const Feedback predicted = bank_->PredictFeedback(u);
    if (!bank_->IsReliable(u.attr, predicted, options_.learner_min_accuracy)) {
      continue;
    }
    GDR_RETURN_NOT_OK(ApplyLearnerDecision(u, predicted));
  }
  if (callback) callback(*this, stats_.user_feedback);
  return Status::OK();
}

Status GdrEngine::LearnerSweep(const ProgressCallback& callback) {
  const Stopwatch sweep_watch;
  for (int pass = 0; pass < options_.learner_sweep_passes; ++pass) {
    std::size_t decided = 0;
    for (const Update& u : pool_->All()) {
      if (!bank_->IsTrained(u.attr)) continue;
      if (!pool_->IsLive(u)) continue;
      if (bank_->Uncertainty(u) > options_.learner_max_uncertainty) continue;
      const Feedback predicted = bank_->PredictFeedback(u);
      if (!bank_->IsReliable(u.attr, predicted,
                             options_.learner_min_accuracy)) {
        continue;
      }
      GDR_RETURN_NOT_OK(ApplyLearnerDecision(u, predicted));
      ++decided;
    }
    if (decided == 0) break;
  }
  stats_.timings.learner_sweep_seconds += sweep_watch.ElapsedSeconds();
  if (callback) callback(*this, stats_.user_feedback);
  return Status::OK();
}

}  // namespace gdr
