#include "core/gdr.h"

#include <gtest/gtest.h>

#include "core/quality.h"
#include "core/session.h"
#include "sim/oracle.h"
#include "workload/registry.h"

namespace gdr {
namespace {

Dataset SmallDataset() {
  return *WorkloadRegistry::Global().Resolve("dataset1:records=800,seed=21");
}

// Start + PumpSession: the one way to run a repair to completion.
Status RunToCompletion(GdrSession* session, UserOracle* oracle) {
  GDR_RETURN_NOT_OK(session->Start());
  return PumpSession(session, oracle);
}

TEST(GdrEngineTest, PumpRequiresStart) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrSession session(&working, &dataset.rules);
  EXPECT_EQ(PumpSession(&session, &oracle).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GdrEngineTest, InitializeIsSingleShot) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrEngine engine(&working, &dataset.rules);
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(engine.Initialize().code(), StatusCode::kFailedPrecondition);
}

TEST(GdrEngineTest, InitializeReportsDirtyCountAndWeights) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrEngine engine(&working, &dataset.rules);
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_GT(engine.stats().initial_dirty, 0u);
  EXPECT_EQ(engine.rule_weights().size(), dataset.rules.size());
  for (double w : engine.rule_weights()) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
  EXPECT_FALSE(engine.pool().empty());
}

TEST(GdrEngineTest, RespectsFeedbackBudget) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 60;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
  EXPECT_LE(session.stats().user_feedback, 60u);
}

TEST(GdrEngineTest, StatsAreInternallyConsistent) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 150;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
  const GdrStats& stats = session.stats();
  EXPECT_EQ(stats.user_feedback,
            stats.user_confirms + stats.user_rejects + stats.user_retains);
  EXPECT_GE(stats.learner_decisions, stats.learner_confirms);
  EXPECT_EQ(stats.user_feedback, oracle.feedback_given());
}

TEST(GdrEngineTest, CallbackSeesMonotoneFeedbackCounts) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 100;
  GdrSession session(&working, &dataset.rules, options);
  std::size_t last = 0;
  session.SetProgressCallback([&last](const GdrEngine&, std::size_t feedback) {
    EXPECT_GE(feedback, last);
    last = feedback;
  });
  ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
  EXPECT_EQ(last, session.stats().user_feedback);
}

TEST(GdrEngineTest, QualityImprovesUnderOracle) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.feedback_budget = 300;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  QualityEvaluator evaluator(dataset.clean, &dataset.rules,
                             session.engine().rule_weights());
  const double initial = evaluator.Loss(session.engine().index());
  ASSERT_TRUE(PumpSession(&session, &oracle).ok());
  EXPECT_LT(evaluator.Loss(session.engine().index()), initial);
}

TEST(GdrEngineTest, DeterministicForSameSeed) {
  Dataset dataset = SmallDataset();
  GdrOptions options;
  options.feedback_budget = 120;
  options.seed = 77;

  auto run = [&](Table* working) {
    UserOracle oracle(&dataset.clean);
    GdrSession session(working, &dataset.rules, options);
    EXPECT_TRUE(RunToCompletion(&session, &oracle).ok());
    return session.stats();
  };
  Table wa = dataset.dirty;
  Table wb = dataset.dirty;
  const GdrStats sa = run(&wa);
  const GdrStats sb = run(&wb);
  EXPECT_EQ(sa.user_feedback, sb.user_feedback);
  EXPECT_EQ(sa.user_confirms, sb.user_confirms);
  EXPECT_EQ(sa.learner_decisions, sb.learner_decisions);
  EXPECT_EQ(*wa.CountDifferingCells(wb), 0u);
}

TEST(GdrEngineTest, NoLearningNeverUsesLearner) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  options.feedback_budget = 200;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
  EXPECT_EQ(session.stats().learner_decisions, 0u);
}

TEST(GdrEngineTest, RetrainTimeIsCountedOnlyWhenLearning) {
  Dataset dataset = SmallDataset();
  for (Strategy strategy : {Strategy::kGdr, Strategy::kGdrNoLearning}) {
    Table working = dataset.dirty;
    UserOracle oracle(&dataset.clean);
    GdrOptions options;
    options.strategy = strategy;
    options.feedback_budget = 150;
    GdrSession session(&working, &dataset.rules, options);
    ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
    const GdrTimings& timings = session.stats().timings;
    if (strategy == Strategy::kGdr) {
      EXPECT_GT(timings.learner_train_seconds, 0.0);
      EXPECT_GT(timings.learner_trains, 0u);
    } else {
      EXPECT_EQ(timings.learner_train_seconds, 0.0);
      EXPECT_EQ(timings.learner_trains, 0u);
    }
  }
}

// Active-Learning never ranks by VOI, yet its committee evaluations
// (uncertainty ordering, scoring displayed predictions, the final sweep)
// are inferences too and must show in the learner counters.
TEST(GdrEngineTest, ActiveLearningCountsLearnerInferences) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.strategy = Strategy::kActiveLearning;
  options.feedback_budget = 150;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
  const GdrTimings& timings = session.stats().timings;
  EXPECT_GT(timings.learner_trains, 0u);
  EXPECT_GT(timings.learner_inferences, 0u);
  EXPECT_GT(timings.learner_encode_seconds, 0.0);
}

TEST(GdrEngineTest, RegenerationIsCountedThroughCascades) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  UserOracle oracle(&dataset.clean);
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  options.feedback_budget = 200;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  // Pool seeding already generated candidates.
  const std::uint64_t seeded = session.stats().timings.regenerations;
  EXPECT_GT(seeded, 0u);

  // Confirm suggestions until one cascades (a confirm that forces
  // repairs or revisits partners regenerates their candidates).
  bool cascaded = false;
  while (!cascaded && session.state() != SessionState::kDone) {
    auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok());
    for (const SuggestedUpdate& s : *batch) {
      const std::uint64_t before = session.stats().timings.regenerations;
      const auto outcome =
          session.SubmitFeedback(s.update_id, Feedback::kConfirm);
      ASSERT_TRUE(outcome.ok());
      if (session.stats().timings.regenerations > before) cascaded = true;
    }
  }
  EXPECT_TRUE(cascaded);
  EXPECT_GT(session.stats().timings.regenerations, seeded);
  EXPECT_GT(session.stats().timings.regenerate_seconds, 0.0);
}

TEST(GdrEngineTest, GroupingIsTimedAtIterationStart) {
  Dataset dataset = SmallDataset();
  Table working = dataset.dirty;
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  GdrSession session(&working, &dataset.rules, options);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_EQ(session.stats().timings.grouping_seconds, 0.0);
  // The first pull starts an iteration, which groups the pool.
  const auto batch = session.NextBatch();
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());
  EXPECT_GT(session.stats().timings.grouping_seconds, 0.0);
}

TEST(GdrEngineTest, UserOnlyStrategiesApplyOnlyConfirmedValues) {
  // With a ground-truth oracle and no learner, every applied change must
  // be correct: precision 1.0 by construction.
  Dataset dataset = SmallDataset();
  for (Strategy strategy : {Strategy::kGdrNoLearning, Strategy::kGreedy,
                            Strategy::kRandomRanking}) {
    Table working = dataset.dirty;
    UserOracle oracle(&dataset.clean);
    GdrOptions options;
    options.strategy = strategy;
    options.feedback_budget = 150;
    GdrSession session(&working, &dataset.rules, options);
    ASSERT_TRUE(RunToCompletion(&session, &oracle).ok());
    auto acc = ComputeRepairAccuracy(dataset.dirty, working, dataset.clean);
    ASSERT_TRUE(acc.ok());
    EXPECT_DOUBLE_EQ(acc->Precision(), 1.0) << StrategyName(strategy);
  }
}

TEST(GdrEngineTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kGdr), "GDR");
  EXPECT_STREQ(StrategyName(Strategy::kGdrSLearning), "GDR-S-Learning");
  EXPECT_STREQ(StrategyName(Strategy::kGdrNoLearning), "GDR-NoLearning");
  EXPECT_STREQ(StrategyName(Strategy::kActiveLearning), "Active-Learning");
  EXPECT_STREQ(StrategyName(Strategy::kGreedy), "Greedy");
  EXPECT_STREQ(StrategyName(Strategy::kRandomRanking), "Random");
}

TEST(GdrEngineTest, StrategyNamesRoundTripThroughParser) {
  for (Strategy strategy :
       {Strategy::kGdr, Strategy::kGdrSLearning, Strategy::kGdrNoLearning,
        Strategy::kActiveLearning, Strategy::kGreedy,
        Strategy::kRandomRanking}) {
    auto parsed = StrategyFromName(StrategyName(strategy));
    ASSERT_TRUE(parsed.ok()) << StrategyName(strategy);
    EXPECT_EQ(*parsed, strategy);
  }
}

TEST(GdrEngineTest, StrategyFromNameRejectsUnknownNames) {
  for (const char* bad : {"", "gdr", "GDR ", "Passive", "random"}) {
    auto parsed = StrategyFromName(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The error lists the accepted spellings, so a REPL user can recover.
    EXPECT_NE(parsed.status().message().find("GDR-S-Learning"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gdr
