#include "core/learner_bank.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/string_similarity.h"

namespace gdr {

namespace {

FeatureSchema SchemaForAttr(const Table& table) {
  std::vector<FeatureDesc> features;
  features.reserve(table.num_attrs() + 7);
  for (std::size_t a = 0; a < table.num_attrs(); ++a) {
    features.push_back(
        {table.schema().attr_name(static_cast<AttrId>(a)),
         FeatureType::kCategorical});
  }
  features.push_back({"suggested_value", FeatureType::kCategorical});
  features.push_back({"similarity", FeatureType::kNumeric});
  features.push_back({"repair_score", FeatureType::kNumeric});
  features.push_back({"log_support_current", FeatureType::kNumeric});
  features.push_back({"log_support_suggested", FeatureType::kNumeric});
  features.push_back({"violations_now", FeatureType::kNumeric});
  features.push_back({"violations_after", FeatureType::kNumeric});
  return FeatureSchema(std::move(features));
}

}  // namespace

LearnerBank::LearnerBank(const Table* table, const ViolationIndex* index,
                         LearnerBankOptions options)
    : table_(table), index_(index), options_(options) {
  const std::size_t n = table_->num_attrs();
  sets_.reserve(n);
  models_.reserve(n);
  for (std::size_t a = 0; a < n; ++a) {
    sets_.emplace_back(SchemaForAttr(*table_), kNumFeedbackClasses);
    RandomForestOptions forest_options = options_.forest;
    // Distinct deterministic stream per attribute model.
    forest_options.seed = options_.seed * 1000003ULL + a;
    models_.emplace_back(forest_options);
  }
  trained_.assign(n, false);
  stale_.assign(n, false);
  outcome_window_.assign(n * kNumFeedbackClasses, {});
  outcome_next_.assign(n * kNumFeedbackClasses, 0);
  outcome_count_.assign(n * kNumFeedbackClasses, 0);
}

namespace {

// Vote-fraction columns per row of Votes' output.
constexpr std::size_t kClasses = kNumFeedbackClasses;

std::size_t OutcomeSlot(AttrId attr, Feedback predicted) {
  return static_cast<std::size_t>(attr) * kNumFeedbackClasses +
         static_cast<std::size_t>(predicted);
}

}  // namespace

void LearnerBank::RecordPredictionOutcome(AttrId attr, Feedback predicted,
                                          bool correct) {
  const std::size_t slot = OutcomeSlot(attr, predicted);
  std::vector<bool>& window = outcome_window_[slot];
  if (window.size() < kAccuracyWindow) {
    window.push_back(correct);
  } else {
    window[outcome_next_[slot] % kAccuracyWindow] = correct;
  }
  ++outcome_next_[slot];
  ++outcome_count_[slot];
}

double LearnerBank::RollingAccuracy(AttrId attr, Feedback predicted) const {
  const std::vector<bool>& window = outcome_window_[OutcomeSlot(attr, predicted)];
  if (window.empty()) return 1.0;
  std::size_t correct = 0;
  for (bool outcome : window) correct += outcome ? 1 : 0;
  return static_cast<double>(correct) / static_cast<double>(window.size());
}

bool LearnerBank::IsReliable(AttrId attr, Feedback predicted,
                             double min_accuracy,
                             std::size_t min_samples) const {
  const std::size_t slot = OutcomeSlot(attr, predicted);
  return trained_[static_cast<std::size_t>(attr)] &&
         outcome_count_[slot] >= min_samples &&
         RollingAccuracy(attr, predicted) >= min_accuracy;
}

void LearnerBank::EncodeIntoRaw(const Update& update, double* dst) const {
  const std::size_t num_attrs = table_->num_attrs();
  for (std::size_t a = 0; a < num_attrs; ++a) {
    dst[a] = static_cast<double>(
        table_->id_at(update.row, static_cast<AttrId>(a)));
  }
  const ValueId current = table_->id_at(update.row, update.attr);
  dst[num_attrs] = static_cast<double>(update.value);
  dst[num_attrs + 1] = NormalizedEditSimilarity(
      table_->at(update.row, update.attr),
      table_->dict(update.attr).ToString(update.value));
  dst[num_attrs + 2] = update.score;
  dst[num_attrs + 3] = std::log1p(
      static_cast<double>(table_->ValueCount(update.attr, current)));
  dst[num_attrs + 4] = std::log1p(
      static_cast<double>(table_->ValueCount(update.attr, update.value)));
  dst[num_attrs + 5] =
      static_cast<double>(index_->ViolatedRuleCount(update.row));
  dst[num_attrs + 6] = static_cast<double>(
      index_->HypotheticalViolatedRuleCount(update.row, update.attr,
                                            update.value));
}

std::vector<double> LearnerBank::Encode(const Update& update) const {
  std::vector<double> features(EncodedWidth());
  EncodeIntoRaw(update, features.data());
  return features;
}

Status LearnerBank::AddFeedback(const Update& update, Feedback feedback) {
  const std::size_t a = static_cast<std::size_t>(update.attr);
  const bool trained = trained_[a];
  // A one-update Votes call leaves the update's encoding in matrix_scratch_.
  if (trained) Votes(std::span<const Update>(&update, 1), &votes_scratch_);
  std::vector<double> features = trained ? matrix_scratch_ : Encode(update);
  GDR_RETURN_NOT_OK(
      sets_[a].Add(Example{std::move(features), static_cast<int>(feedback)}));
  stale_[a] = true;
  if (trained) {
    const auto predicted =
        static_cast<Feedback>(RandomForest::MajorityClass(votes_scratch_));
    RecordPredictionOutcome(update.attr, predicted, predicted == feedback);
  }
  return Status::OK();
}

Status LearnerBank::Retrain(AttrId attr) {
  const std::size_t a = static_cast<std::size_t>(attr);
  if (!stale_[a]) return Status::OK();
  if (sets_[a].size() < options_.min_training_examples) return Status::OK();
  {
    ScopedPhaseTimer timer(&perf_, PerfPhase::kLearnerTrain, sets_[a].size());
    GDR_RETURN_NOT_OK(models_[a].Train(sets_[a]));
  }
  trained_[a] = true;
  stale_[a] = false;
  return Status::OK();
}

bool LearnerBank::IsTrained(AttrId attr) const {
  return trained_[static_cast<std::size_t>(attr)];
}

void LearnerBank::Votes(std::span<const Update> updates,
                        std::vector<double>* fractions) const {
  const std::size_t n = updates.size();
  fractions->assign(n * kClasses, 0.0);
  // Process contiguous runs sharing one attribute (an UpdateGroup is a
  // single run); each trained run is one matrix + one batched forest pass.
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; i = j) {
    const AttrId attr = updates[i].attr;
    j = i + 1;
    while (j < n && updates[j].attr == attr) ++j;
    const std::size_t a = static_cast<std::size_t>(attr);
    if (!trained_[a]) continue;
    const std::size_t rows = j - i;
    const std::size_t width = EncodedWidth();
    {
      ScopedPhaseTimer timer(&perf_, PerfPhase::kLearnerEncode, rows);
      matrix_scratch_.resize(rows * width);
      for (std::size_t r = 0; r < rows; ++r) {
        EncodeIntoRaw(updates[i + r], matrix_scratch_.data() + r * width);
      }
    }
    {
      ScopedPhaseTimer timer(&perf_, PerfPhase::kLearnerTreeWalk, rows);
      models_[a].VoteFractionsBatch(matrix_scratch_.data(), rows, width,
                                    &fraction_scratch_);
    }
    std::copy(fraction_scratch_.begin(), fraction_scratch_.end(),
              fractions->begin() + static_cast<std::ptrdiff_t>(i * kClasses));
  }
}

void LearnerBank::ConfirmProbabilities(std::span<const Update> updates,
                                       std::vector<double>* out) const {
  Votes(updates, &votes_scratch_);
  out->resize(updates.size());
  const std::size_t confirm = static_cast<std::size_t>(Feedback::kConfirm);
  for (std::size_t r = 0; r < updates.size(); ++r) {
    (*out)[r] = IsTrained(updates[r].attr)
                    ? votes_scratch_[r * kClasses + confirm]
                    : updates[r].score;
  }
}

void LearnerBank::Uncertainties(std::span<const Update> updates,
                                std::vector<double>* out) const {
  Votes(updates, &votes_scratch_);
  out->resize(updates.size());
  const std::span<const double> votes(votes_scratch_);
  for (std::size_t r = 0; r < updates.size(); ++r) {
    (*out)[r] = IsTrained(updates[r].attr)
                    ? RandomForest::VoteEntropy(
                          votes.subspan(r * kClasses, kClasses))
                    : 1.0;
  }
}

}  // namespace gdr
