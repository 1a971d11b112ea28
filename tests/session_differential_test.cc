// Session driving contracts: PumpSession and a hand-pumped GdrSession
// produce bit-identical GdrStats, repaired tables, and progress callbacks
// for every strategy at fixed seeds — and a Snapshot() taken mid-session
// (mid-group, mid-batch, post-retrain) Restore()s to the identical final
// result.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "sim/oracle.h"
#include "workload/registry.h"

namespace gdr {
namespace {

constexpr Strategy kAllStrategies[] = {
    Strategy::kGdr,           Strategy::kGdrSLearning,
    Strategy::kGdrNoLearning, Strategy::kActiveLearning,
    Strategy::kGreedy,        Strategy::kRandomRanking,
};

Dataset SmallDataset() {
  return *WorkloadRegistry::Global().Resolve("dataset1:records=600,seed=21");
}

void ExpectSameStats(const GdrStats& a, const GdrStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.initial_dirty, b.initial_dirty) << label;
  EXPECT_EQ(a.user_feedback, b.user_feedback) << label;
  EXPECT_EQ(a.user_confirms, b.user_confirms) << label;
  EXPECT_EQ(a.user_rejects, b.user_rejects) << label;
  EXPECT_EQ(a.user_retains, b.user_retains) << label;
  EXPECT_EQ(a.user_suggested_values, b.user_suggested_values) << label;
  EXPECT_EQ(a.learner_decisions, b.learner_decisions) << label;
  EXPECT_EQ(a.learner_confirms, b.learner_confirms) << label;
  EXPECT_EQ(a.forced_repairs, b.forced_repairs) << label;
  EXPECT_EQ(a.outer_iterations, b.outer_iterations) << label;
}

// Answers one suggestion with the oracle (collecting a volunteered value
// after a reject, as PumpSession does).
void AnswerOne(GdrSession* session, const SuggestedUpdate& s,
               UserOracle* oracle) {
  if (!session->IsLive(s.update_id)) return;
  const Feedback feedback = oracle->GetFeedback(session->table(), s.update);
  std::optional<std::string> volunteered;
  if (feedback == Feedback::kReject) {
    volunteered = oracle->SuggestValue(session->table(), s.update);
  }
  ASSERT_TRUE(
      session->SubmitFeedback(s.update_id, feedback, volunteered).ok());
}

TEST(SessionDifferentialTest, PumpAndHandPumpedSessionAreBitIdentical) {
  const Dataset dataset = SmallDataset();
  for (Strategy strategy : kAllStrategies) {
    GdrOptions options;
    options.strategy = strategy;
    options.feedback_budget = 100;
    options.seed = 9;

    UserOracleOptions oracle_options;
    oracle_options.volunteer_probability = 0.3;
    oracle_options.seed = 91;

    // A: the blocking-provider loop through PumpSession.
    Table table_a = dataset.dirty;
    UserOracle oracle_a(&dataset.clean, oracle_options);
    GdrSession pumped(&table_a, &dataset.rules, options);
    std::vector<std::size_t> callbacks_a;
    pumped.SetProgressCallback(
        [&callbacks_a](const GdrEngine&, std::size_t f) {
          callbacks_a.push_back(f);
        });
    ASSERT_TRUE(pumped.Start().ok());
    ASSERT_TRUE(PumpSession(&pumped, &oracle_a).ok());

    // B: the pull API, hand-pumped batch by batch.
    Table table_b = dataset.dirty;
    UserOracle oracle_b(&dataset.clean, oracle_options);
    GdrSession session(&table_b, &dataset.rules, options);
    std::vector<std::size_t> callbacks_b;
    session.SetProgressCallback(
        [&callbacks_b](const GdrEngine&, std::size_t f) {
          callbacks_b.push_back(f);
        });
    ASSERT_TRUE(session.Start().ok());
    while (session.state() != SessionState::kDone) {
      auto batch = session.NextBatch();
      ASSERT_TRUE(batch.ok());
      for (const SuggestedUpdate& s : *batch) {
        AnswerOne(&session, s, &oracle_b);
      }
    }

    const std::string label = StrategyName(strategy);
    ExpectSameStats(pumped.stats(), session.stats(), label);
    EXPECT_EQ(*table_a.CountDifferingCells(table_b), 0u) << label;
    EXPECT_EQ(callbacks_a, callbacks_b) << label;
    EXPECT_EQ(pumped.engine().index().TotalViolations(),
              session.engine().index().TotalViolations())
        << label;
    EXPECT_EQ(pumped.engine().pool().size(), session.engine().pool().size())
        << label;
    EXPECT_EQ(oracle_a.feedback_given(), oracle_b.feedback_given()) << label;
    EXPECT_EQ(oracle_a.values_volunteered(), oracle_b.values_volunteered())
        << label;
  }
}

// Runs a session to completion, optionally interrupting once: after
// `interrupt_after` labels have been applied, the *current batch* is left
// half-answered (one more suggestion submitted, the rest outstanding) and
// the session is snapshotted mid-batch. The snapshot is serialized,
// parsed back, restored into a brand-new session over a fresh copy of the
// dirty table, and driven to completion from the outstanding batch
// onward. Returns the final stats/table of whichever session finished.
struct FinalState {
  GdrStats stats;
  Table table;
  std::int64_t violations = 0;
};

FinalState RunWithOptionalRestart(const Dataset& dataset,
                                  const GdrOptions& options,
                                  std::optional<std::size_t> interrupt_after) {
  // Volunteering must be off for a cross-restart oracle to be stateless;
  // GetFeedback answers purely from ground truth.
  Table table(dataset.dirty);
  UserOracle oracle(&dataset.clean);
  auto session = std::make_unique<GdrSession>(&table, &dataset.rules, options);
  EXPECT_TRUE(session->Start().ok());

  std::optional<SessionSnapshot> snapshot;
  while (session->state() != SessionState::kDone && !snapshot.has_value()) {
    auto batch = session->NextBatch();
    EXPECT_TRUE(batch.ok());
    for (const SuggestedUpdate& s : *batch) {
      AnswerOne(session.get(), s, &oracle);
      if (interrupt_after.has_value() &&
          session->stats().user_feedback >= *interrupt_after) {
        snapshot = session->Snapshot();  // mid-batch, mid-group
        break;
      }
    }
  }

  if (snapshot.has_value()) {
    // Simulate the process restart: serialize, drop everything, reload the
    // original dirty table, parse, restore, resume.
    const std::string wire = snapshot->Serialize();
    session.reset();
    Table reloaded(dataset.dirty);
    auto parsed = SessionSnapshot::Deserialize(wire);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto resumed =
        std::make_unique<GdrSession>(&reloaded, &dataset.rules, options);
    EXPECT_TRUE(resumed->Restore(*parsed).ok());
    UserOracle fresh_oracle(&dataset.clean);
    // Finish the interrupted batch first, then pump normally.
    for (const SuggestedUpdate& s : resumed->Outstanding()) {
      AnswerOne(resumed.get(), s, &fresh_oracle);
    }
    EXPECT_TRUE(PumpSession(resumed.get(), &fresh_oracle).ok());
    return FinalState{resumed->stats(), reloaded,
                      resumed->engine().index().TotalViolations()};
  }
  return FinalState{session->stats(), table,
                    session->engine().index().TotalViolations()};
}

TEST(SessionDifferentialTest, SnapshotRestoreMidSessionResumesIdentically) {
  const Dataset dataset = SmallDataset();
  for (Strategy strategy :
       {Strategy::kGdr, Strategy::kGdrNoLearning, Strategy::kActiveLearning,
        Strategy::kRandomRanking}) {
    GdrOptions options;
    options.strategy = strategy;
    options.feedback_budget = 100;
    options.seed = 9;

    const FinalState uninterrupted =
        RunWithOptionalRestart(dataset, options, std::nullopt);
    // Interrupt at 52 labels: with n_s = 5 that lands mid-batch, well past
    // the 25-example training threshold for learning strategies, so the
    // snapshot carries trained forests (post-retrain) and a half-answered
    // group (mid-group).
    const FinalState restarted =
        RunWithOptionalRestart(dataset, options, 52);

    const std::string label = StrategyName(strategy);
    ExpectSameStats(uninterrupted.stats, restarted.stats, label);
    EXPECT_EQ(*uninterrupted.table.CountDifferingCells(restarted.table), 0u)
        << label;
    EXPECT_EQ(uninterrupted.violations, restarted.violations) << label;
  }
}

TEST(SessionDifferentialTest, SnapshotAtEveryTenthLabelRestoresExactly) {
  // Tighter variant on one strategy: interrupt at several loop positions
  // (group starts, mid-batch, pre/post learner take-over) and require the
  // identical end state each time.
  const Dataset dataset = SmallDataset();
  GdrOptions options;
  options.strategy = Strategy::kGdr;
  options.feedback_budget = 60;
  options.seed = 77;
  const FinalState reference =
      RunWithOptionalRestart(dataset, options, std::nullopt);
  for (std::size_t cut : {1u, 10u, 30u, 59u}) {
    const FinalState restarted = RunWithOptionalRestart(dataset, options, cut);
    ExpectSameStats(reference.stats, restarted.stats,
                    "cut=" + std::to_string(cut));
    EXPECT_EQ(*reference.table.CountDifferingCells(restarted.table), 0u)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace gdr
