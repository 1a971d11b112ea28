#include "core/learner_bank.h"

#include <gtest/gtest.h>

#include <limits>

namespace gdr {
namespace {

class LearnerBankFixture : public ::testing::Test {
 protected:
  LearnerBankFixture()
      : schema_(*Schema::Make({"SRC", "CT", "ZIP"})), table_(schema_),
        rules_(schema_) {
    // Two sources; source H2 mistypes cities.
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(table_
                      .AppendRow({i % 2 == 0 ? "H1" : "H2",
                                  i % 2 == 0 ? "Fort Wayne" : "FortWayne" +
                                                                  std::to_string(i),
                                  "46802"})
                      .ok());
    }
    EXPECT_TRUE(
        rules_.AddRuleFromString("phi", "ZIP=46802 -> CT=Fort Wayne").ok());
    index_ = std::make_unique<ViolationIndex>(&table_, &rules_);
    LearnerBankOptions options;
    options.min_training_examples = 4;
    options.seed = 5;
    bank_ = std::make_unique<LearnerBank>(&table_, index_.get(), options);
    fort_wayne_ = table_.InternValue(1, "Fort Wayne");
  }

  Update CityUpdate(RowId row) const {
    return Update{row, 1, fort_wayne_, 0.8};
  }

  Schema schema_;
  Table table_;
  RuleSet rules_;
  std::unique_ptr<ViolationIndex> index_;
  std::unique_ptr<LearnerBank> bank_;
  ValueId fort_wayne_;
};

TEST_F(LearnerBankFixture, EncodeLayout) {
  const std::vector<double> features = bank_->Encode(CityUpdate(1));
  // 3 attribute values + suggested + 6 relationship/consistency features.
  ASSERT_EQ(features.size(), 3u + 7u);
  EXPECT_EQ(features[0], static_cast<double>(table_.id_at(1, 0)));
  EXPECT_EQ(features[3], static_cast<double>(fort_wayne_));
  // Repair score feature is carried through.
  EXPECT_DOUBLE_EQ(features[5], 0.8);
  // violations_now for a dirty row is >= 1, violations_after is 0 when the
  // fix resolves everything.
  EXPECT_GE(features[8], 1.0);
  EXPECT_DOUBLE_EQ(features[9], 0.0);
}

TEST_F(LearnerBankFixture, UntrainedBelowThreshold) {
  ASSERT_TRUE(bank_->AddFeedback(CityUpdate(1), Feedback::kConfirm).ok());
  ASSERT_TRUE(bank_->Retrain(1).ok());
  EXPECT_FALSE(bank_->IsTrained(1));
  EXPECT_EQ(bank_->TrainingExamples(1), 1u);
  // Untrained models fall back to the repair score for p-tilde.
  EXPECT_DOUBLE_EQ(bank_->ConfirmProbability(CityUpdate(1)), 0.8);
}

TEST_F(LearnerBankFixture, TrainsAtThresholdAndPredicts) {
  for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}, RowId{9}}) {
    ASSERT_TRUE(bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
  }
  ASSERT_TRUE(bank_->Retrain(1).ok());
  ASSERT_TRUE(bank_->IsTrained(1));
  EXPECT_EQ(bank_->PredictFeedback(CityUpdate(11)), Feedback::kConfirm);
  EXPECT_GT(bank_->ConfirmProbability(CityUpdate(11)), 0.5);
  EXPECT_GE(bank_->Uncertainty(CityUpdate(11)), 0.0);
}

TEST_F(LearnerBankFixture, RetrainIsNoOpWithoutNewFeedback) {
  for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}}) {
    ASSERT_TRUE(bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
  }
  ASSERT_TRUE(bank_->Retrain(1).ok());
  ASSERT_TRUE(bank_->Retrain(1).ok());  // cheap second call
  EXPECT_TRUE(bank_->IsTrained(1));
}

TEST_F(LearnerBankFixture, RetrainCounterCountsTrainingExamples) {
  for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}}) {
    ASSERT_TRUE(bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
  }
  ASSERT_TRUE(bank_->Retrain(1).ok());
  ASSERT_TRUE(bank_->AddFeedback(CityUpdate(9), Feedback::kReject).ok());
  ASSERT_TRUE(bank_->Retrain(1).ok());
  ASSERT_TRUE(bank_->Retrain(1).ok());  // not stale: no train, no count
  const PerfCounters& perf = bank_->perf_counters();
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerTrain), 4u + 5u);
  EXPECT_GT(perf.Seconds(PerfPhase::kLearnerTrain), 0.0);
}

// A feature vector with a non-finite value (here the repair score) is
// rejected before it reaches the training set, and the model is not
// marked stale by it.
TEST_F(LearnerBankFixture, RejectedFeedbackLeavesSetAndStaleFlag) {
  for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}}) {
    ASSERT_TRUE(bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
  }
  ASSERT_TRUE(bank_->Retrain(1).ok());
  ASSERT_TRUE(bank_->IsTrained(1));
  const std::uint64_t trains = bank_->perf_counters().Count(
      PerfPhase::kLearnerTrain);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Update update = CityUpdate(9);
    update.score = bad;
    EXPECT_EQ(bank_->AddFeedback(update, Feedback::kConfirm).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(bank_->TrainingExamples(1), 4u);
  ASSERT_TRUE(bank_->Retrain(1).ok());
  EXPECT_EQ(bank_->perf_counters().Count(PerfPhase::kLearnerTrain), trains);
}

TEST_F(LearnerBankFixture, PerAttributeModelsAreIndependent) {
  for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}}) {
    ASSERT_TRUE(bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
  }
  ASSERT_TRUE(bank_->Retrain(1).ok());
  EXPECT_TRUE(bank_->IsTrained(1));
  EXPECT_FALSE(bank_->IsTrained(0));
  EXPECT_FALSE(bank_->IsTrained(2));
  EXPECT_EQ(bank_->TrainingExamples(2), 0u);
}

TEST_F(LearnerBankFixture, ReliabilityGatePerClass) {
  for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}}) {
    ASSERT_TRUE(bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
  }
  ASSERT_TRUE(bank_->Retrain(1).ok());
  // No outcomes recorded yet -> not reliable despite being trained.
  EXPECT_FALSE(bank_->IsReliable(1, Feedback::kConfirm, 0.8));

  for (int i = 0; i < 8; ++i) {
    bank_->RecordPredictionOutcome(1, Feedback::kConfirm, true);
  }
  EXPECT_TRUE(bank_->IsReliable(1, Feedback::kConfirm, 0.8));
  // Other classes have no outcomes and stay gated.
  EXPECT_FALSE(bank_->IsReliable(1, Feedback::kReject, 0.8));

  // A run of mistakes drops the rolling accuracy below the bar.
  for (int i = 0; i < 10; ++i) {
    bank_->RecordPredictionOutcome(1, Feedback::kConfirm, false);
  }
  EXPECT_LT(bank_->RollingAccuracy(1, Feedback::kConfirm), 0.8);
  EXPECT_FALSE(bank_->IsReliable(1, Feedback::kConfirm, 0.8));
}

TEST_F(LearnerBankFixture, RollingAccuracyWindowForgets) {
  // 20 failures followed by 20 successes: the window only sees successes.
  for (int i = 0; i < 20; ++i) {
    bank_->RecordPredictionOutcome(2, Feedback::kRetain, false);
  }
  for (int i = 0; i < 20; ++i) {
    bank_->RecordPredictionOutcome(2, Feedback::kRetain, true);
  }
  EXPECT_DOUBLE_EQ(bank_->RollingAccuracy(2, Feedback::kRetain), 1.0);
}

}  // namespace
}  // namespace gdr
