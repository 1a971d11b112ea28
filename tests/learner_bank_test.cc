#include "core/learner_bank.h"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "testing/forest_oracle.h"

namespace gdr {
namespace {

using forest_testing::OracleConfirmProbability;
using forest_testing::OraclePrediction;
using forest_testing::OracleUncertainty;

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

  // The production readers over a one-update span.
  double ConfirmProbability(const Update& update) const {
    std::vector<double> out;
    bank_->ConfirmProbabilities(std::span<const Update>(&update, 1), &out);
    return out[0];
  }
  double Uncertainty(const Update& update) const {
    std::vector<double> out;
    bank_->Uncertainties(std::span<const Update>(&update, 1), &out);
    return out[0];
  }

  // Five confirms on the city attribute, then a retrain: a trained model.
  void TrainCityModel() {
    for (RowId row : {RowId{1}, RowId{3}, RowId{5}, RowId{7}, RowId{9}}) {
      ASSERT_TRUE(
          bank_->AddFeedback(CityUpdate(row), Feedback::kConfirm).ok());
    }
    ASSERT_TRUE(bank_->Retrain(1).ok());
    ASSERT_TRUE(bank_->IsTrained(1));
  }

  // True when no prediction outcome of any class has been recorded for
  // `attr` (IsReliable with a zero accuracy bar reduces to the count).
  bool NoOutcomesRecorded(AttrId attr) const {
    for (Feedback c :
         {Feedback::kConfirm, Feedback::kReject, Feedback::kRetain}) {
      if (bank_->IsReliable(attr, c, 0.0, /*min_samples=*/1)) return false;
    }
    return true;
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
  // Untrained models fall back to the repair score for p-tilde and are
  // maximally uncertain.
  EXPECT_DOUBLE_EQ(ConfirmProbability(CityUpdate(1)), 0.8);
  EXPECT_DOUBLE_EQ(Uncertainty(CityUpdate(1)), 1.0);
  EXPECT_EQ(ConfirmProbability(CityUpdate(1)),
            OracleConfirmProbability(*bank_, CityUpdate(1)));
  EXPECT_EQ(Uncertainty(CityUpdate(1)),
            OracleUncertainty(*bank_, CityUpdate(1)));
  // Nothing was evaluated: no committee exists yet.
  EXPECT_EQ(bank_->perf_counters().Count(PerfPhase::kLearnerTreeWalk), 0u);
}

TEST_F(LearnerBankFixture, TrainsAtThresholdAndPredicts) {
  TrainCityModel();
  const Update update = CityUpdate(11);
  EXPECT_EQ(OraclePrediction(*bank_, update), Feedback::kConfirm);
  EXPECT_GT(ConfirmProbability(update), 0.5);
  EXPECT_EQ(ConfirmProbability(update),
            OracleConfirmProbability(*bank_, update));
  EXPECT_GE(Uncertainty(update), 0.0);
  EXPECT_EQ(Uncertainty(update), OracleUncertainty(*bank_, update));
}

// Feedback on a trained attribute scores the displayed prediction (the
// committee majority on the same encoding) against the user's answer.
TEST_F(LearnerBankFixture, AddFeedbackScoresThePredictedClass) {
  TrainCityModel();
  const Update update = CityUpdate(11);
  const Feedback predicted = OraclePrediction(*bank_, update);
  ASSERT_EQ(predicted, Feedback::kConfirm);
  ASSERT_TRUE(NoOutcomesRecorded(1));
  ASSERT_DOUBLE_EQ(bank_->RollingAccuracy(1, predicted), 1.0);

  ASSERT_TRUE(bank_->AddFeedback(update, Feedback::kReject).ok());
  EXPECT_DOUBLE_EQ(bank_->RollingAccuracy(1, predicted), 0.0);
  ASSERT_TRUE(bank_->AddFeedback(CityUpdate(13), Feedback::kConfirm).ok());
  EXPECT_DOUBLE_EQ(bank_->RollingAccuracy(1, predicted), 0.5);
  // Only the predicted class's window moved.
  EXPECT_FALSE(bank_->IsReliable(1, Feedback::kReject, 0.0, 1));
  EXPECT_FALSE(bank_->IsReliable(1, Feedback::kRetain, 0.0, 1));
  // Untrained attributes have no prediction to score.
  const Update zip_update{1, 2, table_.InternValue(2, "46802"), 0.5};
  ASSERT_TRUE(bank_->AddFeedback(zip_update, Feedback::kReject).ok());
  EXPECT_TRUE(NoOutcomesRecorded(2));
}

// A rejected example scores nothing, even though the committee could
// evaluate it: the outcome is recorded only once the set accepts it.
TEST_F(LearnerBankFixture, RejectedFeedbackRecordsNoOutcome) {
  TrainCityModel();
  Update update = CityUpdate(11);
  update.score = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bank_->AddFeedback(update, Feedback::kReject).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(NoOutcomesRecorded(1));
  EXPECT_EQ(bank_->TrainingExamples(1), 5u);
  // The same answer on a finite encoding is scored.
  ASSERT_TRUE(bank_->AddFeedback(CityUpdate(11), Feedback::kReject).ok());
  EXPECT_FALSE(NoOutcomesRecorded(1));
}

// Every committee evaluation is one inference: k updates of a trained
// attribute advance the tree-walk (and encode) counters by exactly k.
TEST_F(LearnerBankFixture, UncertaintiesCountOneInferencePerUpdate) {
  TrainCityModel();
  const PerfCounters& perf = bank_->perf_counters();
  const std::uint64_t walks = perf.Count(PerfPhase::kLearnerTreeWalk);
  const std::uint64_t encodes = perf.Count(PerfPhase::kLearnerEncode);
  const std::vector<Update> updates = {CityUpdate(11), CityUpdate(13),
                                       CityUpdate(15), CityUpdate(17)};
  std::vector<double> out;
  bank_->Uncertainties(updates, &out);
  ASSERT_EQ(out.size(), updates.size());
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerTreeWalk), walks + updates.size());
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerEncode), encodes + updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(out[i], OracleUncertainty(*bank_, updates[i])) << i;
  }
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
