#ifndef GDR_CORE_LEARNER_BANK_H_
#define GDR_CORE_LEARNER_BANK_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cfd/violation_index.h"
#include "data/table.h"
#include "ml/example.h"
#include "ml/random_forest.h"
#include "repair/update.h"
#include "util/flat_table.h"
#include "util/perf_counters.h"
#include "util/result.h"

namespace gdr {

struct LearnerBankOptions {
  /// Forest configuration shared by all per-attribute models (the paper
  /// uses WEKA random forests with k = 10 and defaults).
  RandomForestOptions forest;
  /// A model only starts predicting after this many training examples;
  /// below the threshold the bank reports "untrained" and the engine falls
  /// back to the repair score s_j.
  std::size_t min_training_examples = 25;
  std::uint64_t seed = 17;
};

/// The GDR learning component (Section 4.2): one classification model
/// M_{A_i} per attribute, each predicting the user's feedback
/// {confirm, reject, retain} for suggested updates of that attribute.
///
/// Training examples follow the paper's data representation
///   ⟨t[A_1], …, t[A_n], v, R(t[A_i], v), F⟩:
/// all current attribute values of the tuple (categorical), the suggested
/// value (categorical), and the relationship function R between t[A_i] and
/// v. The paper leaves R open ("we use a string similarity function");
/// this implementation supplies a small family of relationship features:
///   * normalized edit similarity sim(t[A_i], v),
///   * the update's repair score s,
///   * active-instance supports of the current and suggested values
///     (log-scaled) — "is the current value a rare outlier?",
///   * the tuple's violated-rule count now and under the hypothetical
///     update — "does the suggestion actually mend the tuple?".
/// The consistency features are what let a model generalize across data
/// sources instead of memorizing source ids. Categorical feature values
/// are the table's interned value ids, which keeps example construction
/// allocation-free on the hot path. The similarity feature is memoised per
/// (attribute, current id, suggested id): value dictionaries are
/// append-only, so an id pair always names the same two strings and the
/// memo holds exactly the double NormalizedEditSimilarity returned. The
/// memo is a bounded cache (cleared when it reaches
/// kSimilarityMemoLimit entries) and is not part of the saved state.
class LearnerBank {
 public:
  /// `table` and `index` are non-owning and must outlive the bank;
  /// features are encoded against the table's dictionaries and the index's
  /// live violation state.
  LearnerBank(const Table* table, const ViolationIndex* index,
              LearnerBankOptions options = {});

  /// Records user feedback on `update` as a training example for the
  /// attribute's model (does not retrain; call Retrain). A trained model's
  /// majority vote on the same encoding — the prediction the user saw —
  /// is scored against `feedback` once the example is accepted.
  Status AddFeedback(const Update& update, Feedback feedback);

  /// Retrains the attribute's forest if it has reached the example
  /// threshold. Cheap no-op otherwise.
  Status Retrain(AttrId attr);

  /// True once the attribute's model is trained and predicting.
  bool IsTrained(AttrId attr) const;

  /// The training-set size at the attribute's last retrain: the forest's
  /// generation, which grows with every retrain (0 while untrained).
  std::size_t TrainedOn(AttrId attr) const {
    return trained_on_[static_cast<std::size_t>(attr)];
  }

  /// The one committee evaluation: fills `fractions` (updates.size() ×
  /// kNumFeedbackClasses, row-major) with each update's vote fractions.
  /// Each run of updates sharing a trained attribute (a whole UpdateGroup)
  /// is encoded into one feature matrix and walked tree-at-a-time by one
  /// RandomForest::VoteFractionsBatch call; rows of untrained attributes
  /// stay zero. Timed under kLearnerEncode and kLearnerTreeWalk. Not
  /// thread-safe (shared scratch): callers evaluate on one thread.
  void Votes(std::span<const Update> updates,
             std::vector<double>* fractions) const;

  /// p̃_j for VOI, one per update: the committee's confirm-vote fraction
  /// when the attribute's model is trained, otherwise the update's repair
  /// score s_j (Section 4.1, "User Model"). What the session ranks with.
  void ConfirmProbabilities(std::span<const Update> updates,
                            std::vector<double>* out) const;

  /// Committee disagreement (vote entropy in [0,1]), one per update: the
  /// active-learning ordering score and the session batch metadata. 1.0
  /// (maximally uncertain) for untrained attributes.
  void Uncertainties(std::span<const Update> updates,
                     std::vector<double>* out) const;

  /// Feature encoding for one suggested update, as training examples and
  /// inference rows see it (tests and benches read it too).
  std::vector<double> Encode(const Update& update) const;

  /// Cumulative hot-path phase counters (encode ns / tree-walk ns /
  /// retrain ns, with per-phase item counts). Accumulated by Votes and
  /// Retrain; surfaced through GdrStats::timings and the server stats
  /// reply.
  const PerfCounters& perf_counters() const { return perf_; }
  void ResetPerfCounters() { perf_.Reset(); }

  std::size_t TrainingExamples(AttrId attr) const {
    return sets_[static_cast<std::size_t>(attr)].size();
  }

  /// What one attribute's model has accumulated from feedback: everything
  /// a session checkpoint carries for the bank. The forest itself is not
  /// part of it — RandomForest::Train reseeds per call, so retraining on
  /// the first `trained_on` examples rebuilds it bit for bit.
  struct AttrState {
    std::vector<Example> examples;
    /// Examples the forest was last trained on (a prefix of `examples`);
    /// 0 = never trained.
    std::size_t trained_on = 0;
    /// Per predicted class: outcomes observed, and the ring buffer of the
    /// most recent ones (min(count, kAccuracyWindow) entries).
    std::array<std::size_t, kNumFeedbackClasses> outcome_count{};
    std::array<std::vector<bool>, kNumFeedbackClasses> outcome_window;
  };
  static constexpr std::size_t kAccuracyWindow = 20;

  /// Entries the similarity memo holds before it is cleared.
  static constexpr std::size_t kSimilarityMemoLimit = std::size_t{1} << 12;
  std::size_t similarity_memo_size() const { return similarity_memo_.size(); }

  /// One AttrState per attribute.
  std::vector<AttrState> SaveState() const;

  /// Loads SaveState()'s output into a bank that has seen no feedback,
  /// retraining each trained attribute once on its recorded prefix.
  /// Validates every field (example width and labels, trained prefix,
  /// window sizes); on failure the bank is left partly loaded and must be
  /// discarded.
  Status LoadState(const std::vector<AttrState>& state);

  /// The attribute's committee (tests evaluate it independently of Votes).
  const RandomForest& model(AttrId attr) const {
    return models_[static_cast<std::size_t>(attr)];
  }

  /// Records whether the model's prediction `predicted` matched the user's
  /// actual feedback for one labeled update (Section 4.2: the user
  /// inspects the learner's displayed predictions while labeling; this is
  /// how "the user decides whether the classifiers are accurate").
  /// Outcomes are tracked per predicted class: a model can be excellent at
  /// recognizing retains yet useless at confirms, and delegating must
  /// distinguish the two.
  void RecordPredictionOutcome(AttrId attr, Feedback predicted, bool correct);

  /// Rolling accuracy of this attribute's recent `predicted`-class
  /// predictions (1.0 when nothing recorded yet).
  double RollingAccuracy(AttrId attr, Feedback predicted) const;

  /// True when the model is trained and its recent predictions *of this
  /// class* have been accurate enough for the user to delegate them:
  /// ≥ min_samples observed outcomes with rolling accuracy ≥ min_accuracy.
  bool IsReliable(AttrId attr, Feedback predicted, double min_accuracy,
                  std::size_t min_samples = 8) const;

 private:
  // Number of features per encoded example (schema width).
  std::size_t EncodedWidth() const { return table_->num_attrs() + 7; }

  // Writes one update's features into `dst` (EncodedWidth() doubles).
  // The one canonical encoding: Encode and Votes both funnel through it,
  // so training examples and inference rows agree bit for bit. The
  // violation counts come from one pass over the rules dispatched for the
  // write; a rule the write affects reads its post-write flag from the
  // staged probe_, the VOI ranker's evaluator.
  void EncodeIntoRaw(const Update& update, double* dst) const;

  // sim(t[A], v) for the attribute's current and suggested value ids,
  // through the memo.
  double Similarity(AttrId attr, ValueId current, ValueId suggested) const;

  struct SimilarityKey {
    AttrId attr = 0;
    ValueId current = 0;
    ValueId suggested = 0;
    friend bool operator==(const SimilarityKey&,
                           const SimilarityKey&) = default;
  };
  struct SimilarityKeyHash {
    std::size_t operator()(const SimilarityKey& key) const;
  };

  const Table* table_;
  const ViolationIndex* index_;
  LearnerBankOptions options_;
  std::vector<TrainingSet> sets_;      // one per attribute
  std::vector<RandomForest> models_;   // one per attribute
  SplitWorkspace train_workspace_;     // shared by models_' retrains
  // Per attribute: the training-set size at the last retrain (0 = the
  // model is untrained). Feedback since then (size > trained_on) makes
  // the model stale.
  std::vector<std::size_t> trained_on_;
  // Ring buffers of recent prediction outcomes, one per (attribute,
  // predicted class), indexed attr * kNumFeedbackClasses + class; the
  // count of outcomes observed doubles as the ring cursor.
  std::vector<std::vector<bool>> outcome_window_;
  std::vector<std::size_t> outcome_count_;

  // Hot-path scratch (prediction-side methods are logically const but
  // reuse these buffers — the reason the bank is documented not
  // thread-safe for concurrent prediction calls).
  mutable std::vector<double> matrix_scratch_;    // one run's features
  mutable std::vector<double> fraction_scratch_;  // one run's fractions
  mutable std::vector<double> votes_scratch_;     // the readers' Votes
  mutable FlatTable<SimilarityKey, double, SimilarityKeyHash>
      similarity_memo_;
  mutable HypotheticalBatch probe_;  // violations_after's evaluator
  mutable PerfCounters perf_;
};

}  // namespace gdr

#endif  // GDR_CORE_LEARNER_BANK_H_
