#ifndef GDR_CORE_GDR_H_
#define GDR_CORE_GDR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "core/voi.h"
#include "data/table.h"
#include "repair/consistency_manager.h"
#include "repair/repair_state.h"
#include "repair/update_generator.h"
#include "repair/update_pool.h"
#include "util/result.h"
#include "util/rng.h"

namespace gdr {

/// The interaction policies evaluated in Section 5.
enum class Strategy {
  /// Full GDR: VOI group ranking + active-learning (uncertainty) ordering
  /// within the group + learner take-over of the group's remaining updates.
  kGdr,
  /// GDR-S-Learning: VOI ranking, but the user labels a *random* selection
  /// within the group (passive learning); the learner still takes over.
  kGdrSLearning,
  /// GDR-NoLearning: VOI ranking alone; the user verifies every update.
  kGdrNoLearning,
  /// Active-Learning: no grouping/VOI; global uncertainty ordering with
  /// learner take-over at budget exhaustion.
  kActiveLearning,
  /// Greedy: groups ranked by size; the user verifies every update.
  kGreedy,
  /// Random: uniformly random group order; the user verifies everything.
  kRandomRanking,
};

const char* StrategyName(Strategy strategy);

/// Inverse of StrategyName: parses "GDR", "GDR-S-Learning",
/// "GDR-NoLearning", "Active-Learning", "Greedy", "Random"
/// (case-sensitive, exactly as StrategyName prints them). Returns
/// InvalidArgument for anything else, listing the accepted names.
Result<Strategy> StrategyFromName(std::string_view name);

struct GdrOptions {
  /// Sentinel for "no feedback budget": the user keeps answering until the
  /// database is clean or the pool is exhausted.
  static constexpr std::size_t kUnlimitedBudget =
      static_cast<std::size_t>(-1);

  Strategy strategy = Strategy::kGdr;
  /// Maximum number of updates the user will verify (the F of Appendix
  /// B.1); unlimited by default.
  std::size_t feedback_budget = kUnlimitedBudget;
  /// Labels per interactive round n_s (Section 4.2): the user inspects the
  /// n_s top-ordered updates, then the model retrains and reorders.
  int ns = 5;
  std::uint64_t seed = 42;
  LearnerBankOptions learner;
  /// Safety valve on outer iterations.
  int max_outer_iterations = 1000000;
  /// Passes of the final learner sweep applied after the user budget is
  /// exhausted (each confirm/reject can surface new suggestions).
  int learner_sweep_passes = 3;
  /// A learner decision is applied only when the committee's disagreement
  /// entropy is at or below this threshold; more uncertain updates stay in
  /// the pool for the user. This is the "user is satisfied with the
  /// learner predictions" guard of Section 4.2 — the user would not
  /// delegate decisions the committee visibly disagrees on.
  double learner_max_uncertainty = 0.35;
  /// Decisions are delegated to an attribute's model only while its
  /// rolling prediction accuracy on the user's recent labels stays at or
  /// above this threshold (the interactive session's "user is satisfied
  /// with the learner predictions" condition, measured rather than
  /// assumed).
  double learner_min_accuracy = 0.8;
};

/// Per-phase wall-clock timings (seconds), accumulated by the engine.
struct GdrTimings {
  double init_seconds = 0.0;     // Initialize(): index build + pool seeding
  double ranking_seconds = 0.0;  // Step 4: VOI group ranking
  double session_seconds = 0.0;  // group sessions: labels + cascades
  double learner_sweep_seconds = 0.0;  // budget-exhaustion sweeps
  /// Machine time spent inside the session API (NextBatch + SubmitFeedback
  /// bodies). Deliberately excludes the user's think-time between pulls —
  /// a pull-based session may idle for hours while feedback is pending.
  double total_seconds = 0.0;
  /// Hot-path phase breakdown inside ranking (util/perf_counters.h),
  /// synced from the learner bank's and ranker's cumulative counters
  /// after every ranking pass. learner_* covers p̃ evaluation (feature
  /// encoding vs forest tree walks, `learner_inferences` updates total);
  /// voi_probe_* covers the benefit probes (`voi_probes` updates probed).
  /// learner_train_* covers forest retraining after feedback (time inside
  /// RandomForest::Train; `learner_trains` counts training examples
  /// summed over retrains) and is synced after every retrain too.
  double learner_encode_seconds = 0.0;
  double learner_tree_walk_seconds = 0.0;
  double voi_probe_seconds = 0.0;
  double learner_train_seconds = 0.0;
  std::uint64_t learner_inferences = 0;
  std::uint64_t voi_probes = 0;
  std::uint64_t learner_trains = 0;
};

struct GdrStats {
  std::size_t initial_dirty = 0;  // E of Section 5.2
  std::size_t user_feedback = 0;  // total updates verified by the user
  std::size_t user_confirms = 0;
  std::size_t user_rejects = 0;
  std::size_t user_retains = 0;
  std::size_t user_suggested_values = 0;
  std::size_t learner_decisions = 0;
  std::size_t learner_confirms = 0;
  std::size_t forced_repairs = 0;  // consistency-manager cascades
  std::size_t outer_iterations = 0;
  /// Streaming ingestion counters. appended_rows counts every row admitted
  /// through AppendDirtyRows (clean arrivals included); admitted_dirty
  /// counts the rows that entered the dirty set because of those appends
  /// (arrivals and existing partners alike). initial_dirty stays frozen at
  /// its Initialize() value — E of Section 5.2 is a property of the
  /// initial instance.
  std::size_t appended_rows = 0;
  std::size_t admitted_dirty = 0;
  /// Wall-clock phase breakdown. Excluded from determinism comparisons —
  /// every other field is identical run-to-run for a fixed seed.
  GdrTimings timings;
};

class GdrSession;

/// The GDR framework of Figure 2: the component container (violation
/// index, update pool, consistency manager, learner bank, VOI ranker) plus
/// the per-strategy *step functions* of Procedure 1. The interactive loop
/// itself lives in GdrSession (core/session.h), which owns an engine and
/// sequences these steps between feedback pulls:
///
///   GdrSession session(&table, &rules, options);
///   GDR_RETURN_NOT_OK(session.Start());
///   while (session.state() != SessionState::kDone) { ... NextBatch ... }
///
/// or, with a blocking FeedbackProvider, PumpSession(&session, &user).
///
/// The table is repaired in place. The engine never reads ground truth;
/// experiment metrics are computed by the caller against engine.index().
class GdrEngine {
 public:
  /// Both pointers are non-owning and must outlive the engine. `table` is
  /// the dirty instance to repair.
  GdrEngine(Table* table, const RuleSet* rules, GdrOptions options = {});

  GdrEngine(const GdrEngine&) = delete;
  GdrEngine& operator=(const GdrEngine&) = delete;

  /// Step 1–2 of Procedure 1: detects dirty tuples, seeds the candidate
  /// pool, fixes the rule weights w_i = |D(φ_i)|/|D| on the initial
  /// instance.
  Status Initialize();

  /// Outcome of one streaming admission (AppendDirtyRows).
  struct AppendOutcome {
    RowId first_row = -1;        // first id of the appended batch
    std::size_t rows = 0;        // rows appended (== batch size)
    std::size_t newly_dirty = 0;  // rows that entered the dirty set
  };

  /// Streaming ingestion: appends `rows` to the live instance (incremental
  /// index maintenance via ViolationIndex::AppendRows, all-or-nothing),
  /// admits the resulting violations into the update pool
  /// (ConsistencyManager::AdmitRows), and refreshes the rule weights
  /// w_i = |D(φ_i)|/|D| for the grown instance. Requires Initialize().
  /// Rows violating no rule are appended but admit nothing. Deterministic:
  /// the same engine history plus the same appends yields a bit-identical
  /// engine, which is what lets GdrSession record appends in its event log.
  Result<AppendOutcome> AppendDirtyRows(
      const std::vector<std::vector<std::string>>& rows);

  /// Invoked after every user label and after every learner batch, with
  /// the engine in a consistent state; `user_feedback` is the labels spent
  /// so far. Used by harnesses to record quality curves.
  using ProgressCallback =
      std::function<void(const GdrEngine& engine, std::size_t user_feedback)>;

  const Table& table() const { return *table_; }
  const ViolationIndex& index() const { return *index_; }
  const UpdatePool& pool() const { return *pool_; }
  const GdrStats& stats() const { return stats_; }
  const std::vector<double>& rule_weights() const { return weights_; }
  const LearnerBank& learner() const { return *bank_; }
  const ConsistencyManager& consistency() const { return *manager_; }

 private:
  // The loop position (which group, how far into its quota, which batch is
  // awaiting feedback) lives in GdrSession; the engine contributes the
  // state-free per-strategy step functions below, each resumable at any
  // point because all of its inputs are engine components.
  friend class GdrSession;

  bool UsesLearner() const {
    return options_.strategy == Strategy::kGdr ||
           options_.strategy == Strategy::kGdrSLearning ||
           options_.strategy == Strategy::kActiveLearning;
  }
  bool UserBudgetLeft() const {
    return stats_.user_feedback < options_.feedback_budget;
  }

  // Picks the group to present per strategy; returns false if none.
  bool PickGroup(const std::vector<UpdateGroup>& groups,
                 const VoiRanker::Ranking& ranking, std::size_t* picked,
                 double* gmax) const;

  // Per-group user label quota d_i = E·(1 − g(c_i)/g_max), clamped to
  // [min(ns, |c|), |c|] (see DESIGN.md on the clamp).
  std::size_t GroupQuota(const UpdateGroup& group, double score,
                         double gmax) const;

  // One unit of user feedback on `update`: records the prediction outcome
  // against the displayed model prediction, updates stats, trains the bank
  // (learning strategies), applies the feedback through the consistency
  // manager, and applies a volunteered correct value (reject only).
  Status ApplyUserFeedback(const Update& update, Feedback feedback,
                           const std::optional<std::string>& volunteered,
                           const ProgressCallback& callback);

  // Learner take-over of one group (Section 4.2's "user is satisfied with
  // the learner predictions"): the trained, reliable, confident model
  // decides the group's remaining pooled updates.
  Status TakeOverGroup(const UpdateGroup& group,
                       const ProgressCallback& callback);

  // Applies learner predictions to every pooled update with a trained
  // model (budget-exhaustion sweep).
  Status LearnerSweep(const ProgressCallback& callback);

  // Applies one learner decision (no training-set growth).
  Status ApplyLearnerDecision(const Update& update, Feedback feedback);

  // Orders `updates` for user inspection per strategy (in place).
  void OrderForSession(std::vector<Update>* updates);

  // Copies the bank's and ranker's cumulative phase counters into
  // stats_.timings (called after every ranking pass; both sources only
  // ever grow, so assignment — not accumulation — is correct).
  void SyncPerfTimings();

  // Validated snapshot: updates of `group` still present in the pool.
  std::vector<Update> LiveGroupUpdates(const UpdateGroup& group) const;

  Table* table_;
  const RuleSet* rules_;
  GdrOptions options_;

  std::unique_ptr<ViolationIndex> index_;
  std::unique_ptr<UpdatePool> pool_;
  std::unique_ptr<RepairState> state_;
  std::unique_ptr<UpdateGenerator> generator_;
  std::unique_ptr<ConsistencyManager> manager_;
  std::unique_ptr<LearnerBank> bank_;
  std::unique_ptr<VoiRanker> voi_;
  std::vector<double> weights_;
  mutable Rng rng_{0};
  GdrStats stats_;
  bool initialized_ = false;
};

}  // namespace gdr

#endif  // GDR_CORE_GDR_H_
