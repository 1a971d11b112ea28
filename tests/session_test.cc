// GdrSession API behavior: state machine transitions, batch metadata,
// feedback outcomes, abandoned batches, budget accounting, and the
// snapshot wire format. Snapshot/restore bit-identity is covered
// separately by session_differential_test.cc.
#include "core/session.h"

#include <gtest/gtest.h>

#include "sim/oracle.h"
#include "workload/registry.h"

namespace gdr {
namespace {

Dataset SmallDataset() {
  return *WorkloadRegistry::Global().Resolve("dataset1:records=600,seed=21");
}

// Answers every live suggestion of one delivered batch with the oracle.
void AnswerBatch(GdrSession* session, const std::vector<SuggestedUpdate>& batch,
                 UserOracle* oracle) {
  for (const SuggestedUpdate& s : batch) {
    if (!session->IsLive(s.update_id)) continue;
    const Feedback f = oracle->GetFeedback(session->table(), s.update);
    ASSERT_TRUE(session->SubmitFeedback(s.update_id, f).ok());
  }
}

TEST(GdrSessionTest, StartRequiredBeforeUse) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrSession session(&working, &dataset.rules);
  EXPECT_EQ(session.NextBatch().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.SubmitFeedback(1, Feedback::kConfirm).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(GdrSessionTest, StartIsSingleShot) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrSession session(&working, &dataset.rules);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_EQ(session.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(GdrSessionTest, BatchShapeAndMetadata) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrOptions options;
  options.feedback_budget = 40;
  options.ns = 5;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_EQ(session.state(), SessionState::kRanking);

  auto batch = session.NextBatch();
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());
  EXPECT_LE(batch->size(), 5u);
  EXPECT_EQ(session.state(), SessionState::kAwaitingFeedback);
  EXPECT_EQ(session.Outstanding().size(), batch->size());

  for (const SuggestedUpdate& s : *batch) {
    // Grouped strategies present one (attribute := value) group per batch.
    EXPECT_EQ(s.group_attr, batch->front().group_attr);
    EXPECT_EQ(s.group_value, batch->front().group_value);
    EXPECT_EQ(s.group_attr, s.update.attr);
    EXPECT_EQ(s.group_value, s.update.value);
    EXPECT_GT(s.voi_score, 0.0);  // kGdr ranks by VOI; top group scores > 0
    EXPECT_GE(s.uncertainty, 0.0);
    EXPECT_LE(s.uncertainty, 1.0);
    EXPECT_EQ(s.budget_remaining, 40u);
    EXPECT_TRUE(session.IsLive(s.update_id));
  }
  // Ids are unique and assigned in delivery order.
  for (std::size_t i = 1; i < batch->size(); ++i) {
    EXPECT_GT((*batch)[i].update_id, (*batch)[i - 1].update_id);
  }
}

TEST(GdrSessionTest, FeedbackOutcomesForBadIds) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrSession session(&working, &dataset.rules);
  ASSERT_TRUE(session.Start().ok());
  auto batch = session.NextBatch();
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  auto unknown = session.SubmitFeedback(999999, Feedback::kConfirm);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(*unknown, FeedbackOutcome::kUnknownId);

  const std::uint64_t id = batch->front().update_id;
  auto first = session.SubmitFeedback(id, Feedback::kRetain);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, FeedbackOutcome::kApplied);
  auto second = session.SubmitFeedback(id, Feedback::kRetain);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, FeedbackOutcome::kDuplicate);
  EXPECT_EQ(session.stats().user_feedback, 1u);  // duplicate consumed nothing
  EXPECT_FALSE(session.IsLive(id));              // resolved ids are dead
}

TEST(GdrSessionTest, ResolvingWholeBatchLeavesRankingState) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrSession session(&working, &dataset.rules);
  ASSERT_TRUE(session.Start().ok());
  auto batch = session.NextBatch();
  ASSERT_TRUE(batch.ok());
  for (const SuggestedUpdate& s : *batch) {
    if (!session.IsLive(s.update_id)) continue;
    auto outcome = session.SubmitFeedback(
        s.update_id, oracle.GetFeedback(session.table(), s.update));
    ASSERT_TRUE(outcome.ok());
    // Within-batch staleness (cascades) must never surface as an error.
    EXPECT_TRUE(*outcome == FeedbackOutcome::kApplied ||
                *outcome == FeedbackOutcome::kStale);
  }
  EXPECT_EQ(session.state(), SessionState::kRanking);
  EXPECT_TRUE(session.Outstanding().empty());
}

TEST(GdrSessionTest, AbandonedBatchIsRepresented) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;  // deterministic ordering
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  auto first = session.NextBatch();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  // Pull again without answering: the unresolved suggestions are abandoned
  // but stay pooled, so the machine re-presents the same updates (with
  // fresh ids) rather than dropping them.
  auto second = session.NextBatch();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), first->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_TRUE((*second)[i].update == (*first)[i].update);
    EXPECT_NE((*second)[i].update_id, (*first)[i].update_id);
  }
  // Ids of the abandoned batch are dead.
  EXPECT_FALSE(session.IsLive(first->front().update_id));
  EXPECT_EQ(session.SubmitFeedback(first->front().update_id,
                                   Feedback::kConfirm)
                .ValueOrDie(),
            FeedbackOutcome::kUnknownId);
}

TEST(GdrSessionTest, AbandonedActiveLearningBatchIsRepresented) {
  // Regression: Active-Learning conflated "caller pulled again without
  // answering" with the all-stale termination signal and jumped straight
  // to the final sweep, silently dropping the skipped suggestions.
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.strategy = Strategy::kActiveLearning;
  options.feedback_budget = 30;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  auto first = session.NextBatch();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  auto second = session.NextBatch();  // abandon everything
  ASSERT_TRUE(second.ok());
  EXPECT_NE(session.state(), SessionState::kDone);
  ASSERT_FALSE(second->empty());
  // The session still completes normally once answers arrive.
  while (session.state() != SessionState::kDone) {
    auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok());
    AnswerBatch(&session, *batch, &oracle);
  }
  EXPECT_GT(session.stats().user_feedback, 0u);
}

TEST(GdrSessionTest, BudgetBoundsDeliveredBatches) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 7;
  options.ns = 5;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  while (session.state() != SessionState::kDone) {
    auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok());
    EXPECT_LE(batch->size(), 5u);
    // A batch never asks for more labels than the budget has left.
    for (const SuggestedUpdate& s : *batch) {
      EXPECT_LE(batch->size(), s.budget_remaining);
    }
    AnswerBatch(&session, *batch, &oracle);
  }
  EXPECT_LE(session.stats().user_feedback, 7u);
}

TEST(GdrSessionTest, RunsToCompletionAndReportsDone) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 60;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  const std::int64_t initial_violations =
      session.engine().index().TotalViolations();
  while (session.state() != SessionState::kDone) {
    auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok());
    AnswerBatch(&session, *batch, &oracle);
  }
  EXPECT_LT(session.engine().index().TotalViolations(), initial_violations);
  const GdrStats& stats = session.stats();
  EXPECT_EQ(stats.user_feedback,
            stats.user_confirms + stats.user_rejects + stats.user_retains);
  // Done is absorbing: further pulls return empty batches.
  auto after = session.NextBatch();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
  EXPECT_EQ(session.state(), SessionState::kDone);
}

// The second ranking pass reuses the first pass's probes wherever the
// group session in between left their reads alone, so it probes fewer
// updates than it scores.
TEST(GdrSessionTest, SecondRankingReprobesOnlyWhatMoved) {
  Dataset dataset =
      *WorkloadRegistry::Global().Resolve("dataset1:records=1000,seed=11");
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  std::uint64_t first_pass = 0;
  while (session.stats().outer_iterations < 2 &&
         session.state() != SessionState::kDone) {
    auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok());
    if (first_pass == 0) first_pass = session.stats().timings.voi_probes;
    AnswerBatch(&session, *batch, &oracle);
  }
  ASSERT_EQ(session.stats().outer_iterations, 2u);
  const GdrTimings& timings = session.stats().timings;
  // The first pass probed every update it scored.
  EXPECT_GT(first_pass, 0u);
  EXPECT_GT(timings.voi_probes, first_pass);
  EXPECT_GE(timings.voi_reprobes, first_pass);
  EXPECT_LT(timings.voi_reprobes, timings.voi_probes);
}

TEST(GdrSessionTest, SessionStateNames) {
  EXPECT_STREQ(SessionStateName(SessionState::kAwaitingFeedback),
               "awaiting-feedback");
  EXPECT_STREQ(SessionStateName(SessionState::kRanking), "ranking");
  EXPECT_STREQ(SessionStateName(SessionState::kDone), "done");
}

TEST(SessionSnapshotTest, SerializeRoundTripsArbitraryValues) {
  SessionSnapshot snapshot;
  snapshot.strategy = Strategy::kGdrSLearning;
  snapshot.seed = 0xDEADBEEFCAFEULL;
  snapshot.feedback_budget = 120;
  snapshot.ns = 7;
  snapshot.max_outer_iterations = 9999;
  snapshot.learner_sweep_passes = 4;
  snapshot.learner_max_uncertainty = 0.3500000000000000123;
  snapshot.learner_min_accuracy = 1.0 / 3.0;  // needs exact round-trip
  SessionSnapshot::Event pull;
  pull.kind = SessionSnapshot::Event::Kind::kPull;
  SessionSnapshot::Event submit;
  submit.kind = SessionSnapshot::Event::Kind::kSubmit;
  submit.update_id = 42;
  submit.feedback = Feedback::kReject;
  submit.applied = true;
  submit.has_value = true;
  submit.value = "Michigan City\nwith \"quotes\" and\tspaces";
  SessionSnapshot::Event empty_value = submit;
  empty_value.update_id = 43;
  empty_value.applied = false;  // a recorded stale submission
  empty_value.value.clear();
  snapshot.events = {pull, submit, pull, empty_value};

  const std::string text = snapshot.Serialize();
  auto parsed = SessionSnapshot::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->strategy, snapshot.strategy);
  EXPECT_EQ(parsed->seed, snapshot.seed);
  EXPECT_EQ(parsed->feedback_budget, snapshot.feedback_budget);
  EXPECT_EQ(parsed->ns, snapshot.ns);
  EXPECT_EQ(parsed->max_outer_iterations, snapshot.max_outer_iterations);
  EXPECT_EQ(parsed->learner_sweep_passes, snapshot.learner_sweep_passes);
  EXPECT_EQ(parsed->learner_max_uncertainty,
            snapshot.learner_max_uncertainty);  // bit-exact
  EXPECT_EQ(parsed->learner_min_accuracy, snapshot.learner_min_accuracy);
  EXPECT_EQ(parsed->events, snapshot.events);
}

TEST(SessionSnapshotTest, RoundTripsUnlimitedBudget) {
  SessionSnapshot snapshot;
  snapshot.feedback_budget = GdrOptions::kUnlimitedBudget;
  auto parsed = SessionSnapshot::Deserialize(snapshot.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->feedback_budget, GdrOptions::kUnlimitedBudget);
}

TEST(SessionSnapshotTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SessionSnapshot::Deserialize("").ok());
  EXPECT_FALSE(SessionSnapshot::Deserialize("hello world").ok());
  EXPECT_FALSE(SessionSnapshot::Deserialize("GDRSNAP 99\n").ok());
  // Truncated event list.
  SessionSnapshot snapshot;
  SessionSnapshot::Event pull;
  pull.kind = SessionSnapshot::Event::Kind::kPull;
  snapshot.events = {pull, pull};
  std::string text = snapshot.Serialize();
  text.resize(text.size() - 2);
  EXPECT_FALSE(SessionSnapshot::Deserialize(text).ok());
}

TEST(GdrSessionTest, RestoreValidatesOptionsAndFreshness) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 30;
  options.seed = 9;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  auto batch = session.NextBatch();
  ASSERT_TRUE(batch.ok());
  AnswerBatch(&session, *batch, &oracle);
  const SessionSnapshot snapshot = session.Snapshot();

  // Mismatched seed is rejected outright.
  Table fresh = dataset.dirty;
  GdrOptions other = options;
  other.seed = 10;
  GdrSession mismatched(&fresh, &dataset.rules, other);
  EXPECT_EQ(mismatched.Restore(snapshot).code(), StatusCode::kInvalidArgument);

  // So is a mismatched learner delegation threshold (it would silently
  // diverge the replay's take-over decisions).
  Table fresh_threshold = dataset.dirty;
  GdrOptions other_threshold = options;
  other_threshold.learner_max_uncertainty += 0.1;
  GdrSession mismatched_threshold(&fresh_threshold, &dataset.rules,
                                  other_threshold);
  EXPECT_EQ(mismatched_threshold.Restore(snapshot).code(),
            StatusCode::kInvalidArgument);

  // A started session cannot be restored into.
  Table fresh2 = dataset.dirty;
  GdrSession started(&fresh2, &dataset.rules, options);
  ASSERT_TRUE(started.Start().ok());
  EXPECT_EQ(started.Restore(snapshot).code(),
            StatusCode::kFailedPrecondition);

  // A pristine session with matching options restores fine.
  Table fresh3 = dataset.dirty;
  GdrSession restored(&fresh3, &dataset.rules, options);
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(restored.stats().user_feedback, session.stats().user_feedback);
  EXPECT_EQ(*fresh3.CountDifferingCells(working), 0u);
}

}  // namespace
}  // namespace gdr
