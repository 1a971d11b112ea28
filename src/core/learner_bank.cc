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
    : table_(table), index_(index), options_(options), probe_(index) {
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
  trained_on_.assign(n, 0);
  outcome_window_.assign(n * kNumFeedbackClasses, {});
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
    window[outcome_count_[slot] % kAccuracyWindow] = correct;
  }
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
  return IsTrained(attr) && outcome_count_[slot] >= min_samples &&
         RollingAccuracy(attr, predicted) >= min_accuracy;
}

std::size_t LearnerBank::SimilarityKeyHash::operator()(
    const SimilarityKey& key) const {
  // SplitMix64's finalizer over the packed ids: FlatTable probes from the
  // low bits, so they must depend on every field.
  std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.current))
       << 32) ^
      static_cast<std::uint32_t>(key.suggested) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.attr))
       << 48);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

double LearnerBank::Similarity(AttrId attr, ValueId current,
                               ValueId suggested) const {
  const SimilarityKey key{attr, current, suggested};
  if (const double* memo = similarity_memo_.Find(key)) return *memo;
  if (similarity_memo_.size() >= kSimilarityMemoLimit) {
    similarity_memo_.Clear();
  }
  const ValueDict& dict = table_->dict(attr);
  const double sim = NormalizedEditSimilarity(dict.ToString(current),
                                              dict.ToString(suggested));
  similarity_memo_.Insert(key, sim);
  return sim;
}

void LearnerBank::EncodeIntoRaw(const Update& update, double* dst) const {
  const std::size_t num_attrs = table_->num_attrs();
  for (std::size_t a = 0; a < num_attrs; ++a) {
    dst[a] = static_cast<double>(
        table_->id_at(update.row, static_cast<AttrId>(a)));
  }
  const ValueId current = table_->id_at(update.row, update.attr);
  dst[num_attrs] = static_cast<double>(update.value);
  dst[num_attrs + 1] = Similarity(update.attr, current, update.value);
  dst[num_attrs + 2] = update.score;
  dst[num_attrs + 3] = std::log1p(
      static_cast<double>(table_->ValueCount(update.attr, current)));
  dst[num_attrs + 4] = std::log1p(
      static_cast<double>(table_->ValueCount(update.attr, update.value)));
  // A candidate rule the write leaves alone counts alike now and after;
  // one outside the candidates is violated neither now nor after.
  probe_.Stage(update.attr, update.value);
  const bool no_op = probe_.IsNoOp(update.row);
  double& now = dst[num_attrs + 5];
  double& after = dst[num_attrs + 6];
  now = after = 0.0;
  index_->ForEachCandidateRule(
      update.row, update.attr, update.value, [&](RuleId rule) {
        const bool violates = index_->Violates(update.row, rule);
        const std::int32_t k =
            no_op ? -1 : index_->AffectedSlot(update.attr, rule);
        const bool violates_after =
            k < 0 ? violates
                  : probe_.Probe(static_cast<std::size_t>(k), update.row)
                        .violates_after;
        now += violates ? 1.0 : 0.0;
        after += violates_after ? 1.0 : 0.0;
      });
}

std::vector<double> LearnerBank::Encode(const Update& update) const {
  std::vector<double> features(EncodedWidth());
  EncodeIntoRaw(update, features.data());
  return features;
}

Status LearnerBank::AddFeedback(const Update& update, Feedback feedback) {
  const std::size_t a = static_cast<std::size_t>(update.attr);
  const bool trained = IsTrained(update.attr);
  // A one-update Votes call leaves the update's encoding in matrix_scratch_.
  if (trained) Votes(std::span<const Update>(&update, 1), &votes_scratch_);
  std::vector<double> features = trained ? matrix_scratch_ : Encode(update);
  GDR_RETURN_NOT_OK(
      sets_[a].Add(Example{std::move(features), static_cast<int>(feedback)}));
  if (trained) {
    const auto predicted =
        static_cast<Feedback>(RandomForest::MajorityClass(votes_scratch_));
    RecordPredictionOutcome(update.attr, predicted, predicted == feedback);
  }
  return Status::OK();
}

Status LearnerBank::Retrain(AttrId attr) {
  const std::size_t a = static_cast<std::size_t>(attr);
  if (sets_[a].size() == trained_on_[a]) return Status::OK();  // not stale
  if (sets_[a].size() < options_.min_training_examples) return Status::OK();
  {
    ScopedPhaseTimer timer(&perf_, PerfPhase::kLearnerTrain, sets_[a].size());
    GDR_RETURN_NOT_OK(models_[a].Train(sets_[a], &train_workspace_));
  }
  trained_on_[a] = sets_[a].size();
  return Status::OK();
}

bool LearnerBank::IsTrained(AttrId attr) const {
  return trained_on_[static_cast<std::size_t>(attr)] > 0;
}

std::vector<LearnerBank::AttrState> LearnerBank::SaveState() const {
  std::vector<AttrState> state(sets_.size());
  for (std::size_t a = 0; a < sets_.size(); ++a) {
    state[a].examples = sets_[a].examples();
    state[a].trained_on = trained_on_[a];
    for (std::size_t c = 0; c < kNumFeedbackClasses; ++c) {
      const std::size_t slot = a * kNumFeedbackClasses + c;
      state[a].outcome_count[c] = outcome_count_[slot];
      state[a].outcome_window[c] = outcome_window_[slot];
    }
  }
  return state;
}

Status LearnerBank::LoadState(const std::vector<AttrState>& state) {
  if (state.size() != sets_.size()) {
    return Status::InvalidArgument("learner state covers " +
                                   std::to_string(state.size()) +
                                   " attributes, the schema has " +
                                   std::to_string(sets_.size()));
  }
  for (std::size_t a = 0; a < sets_.size(); ++a) {
    const AttrState& attr = state[a];
    if (!sets_[a].empty() || trained_on_[a] != 0) {
      return Status::FailedPrecondition("learner bank already has feedback");
    }
    // Retrain() only ever trains a set that reached the threshold.
    if (attr.trained_on > attr.examples.size() ||
        (attr.trained_on > 0 &&
         attr.trained_on < options_.min_training_examples)) {
      return Status::InvalidArgument("learner state: bad trained prefix");
    }
    for (std::size_t i = 0; i < attr.examples.size(); ++i) {
      if (attr.examples[i].features.size() != EncodedWidth()) {
        return Status::InvalidArgument("learner state: bad example width");
      }
      GDR_RETURN_NOT_OK(sets_[a].Add(attr.examples[i]));
      if (i + 1 == attr.trained_on) {
        // The forest saw exactly this prefix: train before the rest joins
        // (the set's value coding grows with every example).
        GDR_RETURN_NOT_OK(models_[a].Train(sets_[a], &train_workspace_));
        trained_on_[a] = attr.trained_on;
      }
    }
    for (std::size_t c = 0; c < kNumFeedbackClasses; ++c) {
      const std::vector<bool>& window = attr.outcome_window[c];
      if (window.size() !=
          std::min(attr.outcome_count[c], kAccuracyWindow)) {
        return Status::InvalidArgument("learner state: bad outcome window");
      }
      const std::size_t slot = a * kNumFeedbackClasses + c;
      outcome_count_[slot] = attr.outcome_count[c];
      outcome_window_[slot] = window;
    }
  }
  return Status::OK();
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
    if (trained_on_[a] == 0) continue;
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
