#ifndef GDR_CORE_SESSION_H_
#define GDR_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/feedback_provider.h"
#include "core/gdr.h"
#include "util/result.h"

namespace gdr {

/// Where the interactive loop currently stands, from the caller's side.
enum class SessionState {
  /// A batch has been delivered by NextBatch() and at least one of its
  /// suggestions is still unresolved; the machine is idle until feedback
  /// arrives (or the caller pulls again, abandoning the remainder).
  kAwaitingFeedback,
  /// Between batches: machine steps (retrain, reorder, learner take-over,
  /// group transition, ranking) are pending and run on the next
  /// NextBatch() call.
  kRanking,
  /// The loop has terminated (final learner sweep included, where the
  /// strategy has one). NextBatch() returns an empty batch.
  kDone,
};

const char* SessionStateName(SessionState state);

/// Per-call result of SubmitFeedback.
enum class FeedbackOutcome {
  /// The feedback was consumed: stats, learner, and database advanced.
  kApplied,
  /// The suggestion was retired or replaced (by a consistency cascade from
  /// an earlier answer) between delivery and submission. Nothing was
  /// consumed — in particular no budget — and a pumped session never asks
  /// the user about it.
  kStale,
  /// This update_id was already resolved; the call was a no-op.
  kDuplicate,
  /// The update_id does not belong to the outstanding batch (never issued,
  /// or abandoned by a later NextBatch()); the call was a no-op.
  kUnknownId,
};

/// One machine-ranked suggestion handed to the caller, with the metadata a
/// review UI needs to present it (Section 4.2's group session screen).
struct SuggestedUpdate {
  /// Session-unique handle for SubmitFeedback. Ids are assigned in
  /// delivery order and are stable across Snapshot()/Restore().
  std::uint64_t update_id = 0;
  Update update;
  /// The group the suggestion was presented under: all members share
  /// (attribute := suggested value). For the ungrouped Active-Learning
  /// strategy this is the update's own cell attribute/value.
  AttrId group_attr = kInvalidAttrId;
  ValueId group_value = kInvalidValueId;
  /// E[g(c)] of the group under the current ranking (Eq. 6); 0.0 for
  /// strategies that do not rank by VOI.
  double voi_score = 0.0;
  /// Committee disagreement entropy in [0,1]; 1.0 before the attribute's
  /// model is trained.
  double uncertainty = 1.0;
  /// User labels remaining after this batch was formed
  /// (GdrOptions::kUnlimitedBudget when no budget is set).
  std::size_t budget_remaining = GdrOptions::kUnlimitedBudget;
};

/// A session's complete state at one API boundary — what a restored
/// session needs to continue bit-identically — stored as a delta against
/// the session's original dirty table. Derived state is left out and
/// rebuilt by Restore(): the violation index (built once over the patched
/// table), the forests (each retrained once on its recorded prefix) and
/// the VOI ranker's re-ranking cache (rebuilt from empty). Phase timings
/// are process-local and not carried: a restored session's GdrTimings
/// count from the restore.
struct SessionCheckpoint {
  /// One cell and a value: a frozen cell's current value, or a value the
  /// cell's prevented list holds.
  struct Cell {
    RowId row = -1;
    AttrId attr = kInvalidAttrId;
    ValueId value = kInvalidValueId;
  };
  struct Outstanding {
    SuggestedUpdate suggestion;
    bool resolved = false;
  };

  // --- The table, against the original dirty instance.
  std::size_t base_rows = 0;
  /// Digest of the original instance as the session left it readable: its
  /// dictionaries and every cell outside `frozen`. Restore() rejects a
  /// table that does not reproduce it (not the original dirty instance).
  std::uint64_t base_digest = 0;
  /// Per attribute: the original dictionary size, and the values interned
  /// since (rule constants, volunteered values, appended cells), in id
  /// order.
  std::vector<std::size_t> base_domain;
  std::vector<std::vector<std::string>> interned;
  /// Rows appended since Start(), as current value ids.
  std::vector<std::vector<ValueId>> appended;
  /// Every frozen cell with its current value, ascending by (row, attr).
  /// The consistency manager freezes each cell it writes, so these patch
  /// every cell that differs from the original instance.
  std::vector<Cell> frozen;
  /// The prevented lists, ascending by (row, attr, value).
  std::vector<Cell> prevented;

  // --- Engine components.
  std::vector<Update> pool;  // ascending by (row, attr)
  std::vector<RowId> dirty;  // ascending
  /// The Eq. 3 weights, fixed on the initial instance (and refreshed by
  /// appends) — not recomputable from the current one.
  std::vector<double> rule_weights;
  /// The violation index's registered (rule, attribute) projections,
  /// ascending: derived state, but registering them during the restore
  /// keeps their scans out of later feedback calls.
  std::vector<std::pair<RuleId, AttrId>> projections;
  Rng::State rng{};
  GdrStats stats;  // counters only; timings are not carried
  std::vector<LearnerBank::AttrState> learner;  // one per attribute

  // --- The loop position (GdrSession's members of the same names).
  std::uint8_t phase = 0;
  int iterations = 0;
  UpdateGroup picked;
  double group_score = 0.0;
  std::size_t quota = 0;
  std::size_t labeled_in_group = 0;
  std::size_t before_feedback = 0;
  std::size_t before_decisions = 0;
  bool admitted_since_iteration = false;
  std::size_t labeled_in_round = 0;
  std::vector<AttrId> touched_attrs;
  std::vector<Outstanding> outstanding;  // in delivery order
  std::uint64_t next_update_id = 1;
};

/// A serializable session: an optional checkpoint of the session's state
/// plus the tail of API calls (pulls, submissions, row appends) made after
/// it. Restore() applies the checkpoint — or Start()s over the original
/// dirty table when there is none — and then replays the tail. Every
/// component is deterministic under a fixed seed, so the replay
/// reconstructs what those calls produced bit for bit. Snapshot() writes a
/// checkpoint and an empty tail, so restoring costs one index build and
/// one retrain per trained attribute, whatever the session's age.
struct SessionSnapshot {
  struct Event {
    enum class Kind : std::uint8_t { kPull = 0, kSubmit = 1, kAppend = 2 };
    Kind kind = Kind::kPull;
    std::uint64_t update_id = 0;          // kSubmit only
    Feedback feedback = Feedback::kConfirm;  // kSubmit only
    /// Whether the submission was consumed (kApplied) or hit a stale
    /// suggestion (kStale). Replay must reproduce the same outcome;
    /// a mismatch means the table was not reloaded in its original
    /// dirty state, and Restore() rejects it.
    bool applied = false;                 // kSubmit only
    bool has_value = false;               // volunteered value present?
    std::string value;                    // kSubmit only, when has_value
    /// kAppend only: the admitted rows, verbatim, and how many rows the
    /// admission made dirty. Replay re-appends the rows; a newly_dirty
    /// mismatch is the appends' divergence check, analogous to `applied`.
    std::vector<std::vector<std::string>> rows;
    std::size_t newly_dirty = 0;

    bool operator==(const Event&) const = default;
  };

  /// The options the session ran under, for compatibility validation at
  /// Restore() time. The caller is responsible for reconstructing the
  /// full GdrOptions (restore assumes every knob matches — a silent
  /// mismatch anywhere, including nested learner/forest options, diverges
  /// the restored session); these scalar loop knobs are carried along so
  /// the common mistakes are caught loudly instead.
  Strategy strategy = Strategy::kGdr;
  std::uint64_t seed = 0;
  std::size_t feedback_budget = GdrOptions::kUnlimitedBudget;
  int ns = 0;
  int max_outer_iterations = 0;
  int learner_sweep_passes = 0;
  double learner_max_uncertainty = 0.0;
  double learner_min_accuracy = 0.0;

  std::optional<SessionCheckpoint> checkpoint;
  std::vector<Event> events;  // the tail after the checkpoint

  /// Plain-text wire format (versioned header + hex-encoded strings, so
  /// volunteered values and appended cells may contain any bytes).
  /// Version 2 added the append ("A") event; version 3 added a trailing
  /// "end" marker so a truncated prefix (crash mid-write) can never parse
  /// as a complete snapshot; version 4 adds the checkpoint between the
  /// header and the events, one section per group of SessionCheckpoint
  /// fields, in their order. A snapshot without a checkpoint is written as
  /// version 3, byte for byte what earlier builds wrote, and version 1–3
  /// texts still deserialize — as "no checkpoint plus the full log".
  /// Every count is bounded by the bytes left, so a corrupt text fails
  /// with InvalidArgument instead of allocating.
  std::string Serialize() const;
  static Result<SessionSnapshot> Deserialize(std::string_view text);
};

/// Outcome of one GdrSession::AppendDirtyRows call.
struct SessionAppendOutcome {
  std::size_t rows_appended = 0;
  /// Rows that entered the dirty set: arrivals that violate a rule plus
  /// existing rows their arrival implicated. 0 means the appends were
  /// clean — nothing was admitted and the loop is untouched.
  std::size_t newly_dirty = 0;
  /// Net change in pool size (admission adds suggestions; a partner
  /// revisit may retire one without replacement).
  std::int64_t pool_delta = 0;
  /// True when the appends re-armed a session that had already reached
  /// kDone (new dirt revives the loop).
  bool revived = false;
};

/// The interactive loop of Procedure 1 (Steps 3–10), inverted: instead of
/// the loop calling *out* to a blocking user, the caller pulls the next
/// batch of machine-ranked suggestions and pushes feedback whenever it
/// arrives — per update, in any order, at any later time. All machine
/// steps (retrain, reorder, learner take-over, consistency cascades, group
/// transitions, the final learner sweep) run inside
/// NextBatch()/SubmitFeedback(); between calls the session holds an
/// explicit loop position, so one process can multiplex many sessions and
/// a snapshot can move a session across process restarts.
///
///   GdrSession session(&table, &rules, options);
///   GDR_RETURN_NOT_OK(session.Start());
///   while (session.state() != SessionState::kDone) {
///     auto batch = session.NextBatch();            // ≤ ns suggestions
///     for (const SuggestedUpdate& s : *batch) {
///       if (!session.IsLive(s.update_id)) continue;
///       ... show s to the user, await their answer ...
///       session.SubmitFeedback(s.update_id, answer);
///     }
///   }
///
/// The loop terminates when the database is clean, the candidate pool is
/// exhausted, the feedback budget is spent (after the final learner sweep,
/// for learning strategies), or an iteration makes no progress. Harnesses
/// whose user answers inline drive it with PumpSession below.
class GdrSession {
 public:
  /// Owns its engine: `table` and `rules` are non-owning and must outlive
  /// the session; the table is repaired in place.
  GdrSession(Table* table, const RuleSet* rules, GdrOptions options = {});

  ~GdrSession();

  GdrSession(const GdrSession&) = delete;
  GdrSession& operator=(const GdrSession&) = delete;

  /// Initializes the engine if needed and arms the loop. Must be called
  /// (once) before NextBatch(); Restore() calls it internally.
  Status Start();

  SessionState state() const { return state_; }

  /// Runs pending machine steps and returns the next batch: the ≤ n_s
  /// top-ordered suggestions of the current group session (VOI-ranked
  /// groups, uncertainty- or strategy-ordered within the group), each with
  /// presentation metadata. Returns an empty vector once the loop is done.
  /// Pulling while a batch is still outstanding abandons the unresolved
  /// remainder — those suggestions stay in the pool and reappear in later
  /// batches (they are never silently dropped).
  Result<std::vector<SuggestedUpdate>> NextBatch();

  /// Pushes one unit of user feedback for a delivered suggestion. On
  /// kReject the user may volunteer the correct value, which is applied as
  /// a confirmed ⟨t, A, v', 1⟩ (Section 4.2). Safe to call in any order
  /// within the outstanding batch and at any time before the next pull.
  Result<FeedbackOutcome> SubmitFeedback(
      std::uint64_t update_id, Feedback feedback,
      std::optional<std::string> suggested_value = std::nullopt);

  /// Streaming admission: appends `rows` to the live instance mid-session
  /// — at any loop position, including mid-batch and after kDone. The
  /// engine indexes the rows incrementally and admits their violations
  /// into the update pool. The in-flight group session continues under
  /// its score and quota: the session refreshes the picked group from the
  /// pool, so admitted updates that join its (attribute, value) surface in
  /// its later rounds and in its learner take-over. Every other admitted
  /// update is grouped and ranked at the next iteration, as always. Clean
  /// rows (violating nothing) admit nothing and change nothing. A
  /// snapshot carries the appended rows in its checkpoint; a kDone
  /// session with new dirt is re-armed (`revived`).
  Result<SessionAppendOutcome> AppendDirtyRows(
      const std::vector<std::vector<std::string>>& rows);

  /// True while `update_id` is outstanding *and* its suggestion is still
  /// the pool's live entry for the cell. A pump should skip dead ids
  /// instead of asking the user about them.
  bool IsLive(std::uint64_t update_id) const;

  /// The unresolved suggestions of the outstanding batch, in delivery
  /// order. Empty unless state() == kAwaitingFeedback. After Restore(),
  /// this is where a resumed UI picks up mid-batch.
  std::vector<SuggestedUpdate> Outstanding() const;

  /// Invoked after every applied label and after every learner batch, with
  /// the engine in a consistent state (experiments record quality curves
  /// here).
  /// Suppressed while Restore() replays a snapshot's event tail (the
  /// events already fired in the original session).
  void SetProgressCallback(GdrEngine::ProgressCallback callback);

  const GdrEngine& engine() const { return *engine_; }
  const Table& table() const { return engine_->table(); }
  const GdrStats& stats() const { return engine_->stats(); }

  /// The session's state as a checkpoint with an empty event tail,
  /// restorable at any API boundary — including mid-batch. Costs one pass
  /// over the session's state (pool, repair state, training sets); the
  /// live session keeps no history.
  SessionSnapshot Snapshot() const;

  /// Rebuilds the session recorded in `snapshot`: applies its checkpoint,
  /// or Start()s when it has none, then replays its event tail.
  /// Requirements: the session has not been started (Restore starts it),
  /// the table is the *original dirty table* (a checkpoint is a delta
  /// against it; a tail replays every repair over it), and the session's
  /// strategy/seed/ns/feedback_budget match the snapshot's.
  /// After a successful restore the session continues exactly where the
  /// snapshotted one stood: same pool, learner bank, RNG streams, stats
  /// counters, outstanding batch, and update-id sequence.
  ///
  /// A failed restore (corrupted snapshot, a table that is not the
  /// original, diverging replay) is fully rolled back: the table is
  /// returned to its pre-call contents, the engine is rebuilt pristine
  /// over it, and the session is reset to not-started — Start()
  /// afterwards runs it exactly like a fresh session.
  Status Restore(const SessionSnapshot& snapshot);

 private:
  // Loop position between API calls. The grouped strategies and the
  // ungrouped Active-Learning baseline have disjoint phase sets; both
  // funnel into kFinalSweep → kDone.
  enum class Phase {
    kNotStarted,
    // Grouped strategies (all but kActiveLearning):
    kIterationStart,  // outer-loop check, group, rank, pick, quota
    kRoundStart,      // inner-round check, order, form + deliver a batch
    kBatchOut,        // a delivered batch awaits feedback
    kRoundEnd,        // batch resolved/abandoned: retrain, next round
    kTakeOver,        // learner decides the group's remainder; epilogue
    // Active-Learning:
    kAlRoundStart,  // loop check, order pool, form + deliver a batch
    kAlBatchOut,    // a delivered batch awaits feedback
    kAlRoundEnd,    // retrain touched attributes or terminate
    // Common tail:
    kFinalSweep,  // budget-exhaustion learner sweep where applicable
    kDone,
  };

  // One delivered suggestion awaiting (or already given) feedback.
  using OutstandingEntry = SessionCheckpoint::Outstanding;

  // Runs machine steps until a batch is delivered (returned in `batch`)
  // or the loop completes (empty `batch`, state kDone).
  Status Advance(std::vector<SuggestedUpdate>* batch);
  // One phase step each; return the next phase via phase_.
  Status StepIterationStart();
  Status StepRoundStart(std::vector<SuggestedUpdate>* batch);
  Status StepRoundEnd();
  Status StepTakeOver();
  Status StepAlRoundStart(std::vector<SuggestedUpdate>* batch);
  Status StepAlRoundEnd();
  Status StepFinalSweep();

  // Packages live[0..count) as the outstanding batch; `uncertainties` is
  // OrderForSession's, or empty to evaluate just the delivered head.
  void DeliverBatch(const std::vector<Update>& live,
                    std::vector<double> uncertainties, std::size_t count,
                    AttrId group_attr, ValueId group_value, double voi_score,
                    std::vector<SuggestedUpdate>* batch);

  bool RanksByVoi() const;

  // After a mid-iteration admission: replaces picked_ with the pool's
  // current group for its (attr, value), or keeps it if that group
  // vanished (its dead updates then drain via LiveGroupUpdates).
  void RefreshPickedGroup();

  // The fallible middle of Restore(): checkpoint (or Start), then the
  // event tail. Restore() wraps it with the all-or-nothing rollback.
  Status ReplaySnapshot(const SessionSnapshot& snapshot);
  // Loads a checkpoint into this not-started session and its
  // uninitialized engine: patches the table, builds the components over
  // it, loads their state and the loop position.
  Status LoadCheckpoint(const SessionCheckpoint& checkpoint);
  SessionCheckpoint SaveCheckpoint() const;
  // Returns every loop member to its freshly-constructed value.
  void ResetToNotStarted();

  std::unique_ptr<GdrEngine> engine_;  // the components + step functions
  GdrEngine::ProgressCallback callback_;

  SessionState state_ = SessionState::kRanking;
  Phase phase_ = Phase::kNotStarted;

  // Grouped-iteration position.
  int iterations_ = 0;
  UpdateGroup picked_;  // the group this iteration presents
  double group_score_ = 0.0;
  std::size_t quota_ = 0;
  std::size_t labeled_in_group_ = 0;
  std::size_t before_feedback_ = 0;
  std::size_t before_decisions_ = 0;
  // Set by AppendDirtyRows, cleared at each iteration/AL-round start: an
  // admission counts as progress in the no-progress epilogues (the new
  // groups deserve an iteration before the loop may terminate).
  bool admitted_since_iteration_ = false;

  // Active-Learning round position.
  std::size_t labeled_in_round_ = 0;
  std::vector<AttrId> touched_attrs_;

  // The outstanding batch.
  std::vector<OutstandingEntry> outstanding_;
  std::size_t resolved_count_ = 0;
  std::uint64_t next_update_id_ = 1;

  // The original dirty table's shape, recorded by Start() (or carried
  // over by a checkpoint): checkpoints are deltas against it.
  std::size_t base_rows_ = 0;
  std::vector<std::size_t> base_domain_;

  // Set while Restore() replays an event tail; suppresses callbacks.
  bool replaying_ = false;
};

/// Drives `session` to completion with a blocking FeedbackProvider: pull a
/// batch, ask `user` about each still-live suggestion (collecting a
/// volunteered value after a reject), push the answer, repeat until done.
/// Procedure 1's original call shape, for users that answer inline.
Status PumpSession(GdrSession* session, FeedbackProvider* user);

}  // namespace gdr

#endif  // GDR_CORE_SESSION_H_
