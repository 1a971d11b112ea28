#ifndef GDR_ML_RANDOM_FOREST_H_
#define GDR_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/example.h"
#include "util/result.h"
#include "util/rng.h"

namespace gdr {

struct RandomForestOptions {
  /// Committee size k; the paper uses WEKA's default k = 10.
  int num_trees = 10;
  /// Bootstrap sample size as a fraction of N (N' = N by Breiman's default).
  double bootstrap_fraction = 1.0;
  /// Per-split feature subsample M'; 0 means ⌈√M⌉ (the standard default).
  int feature_subsample = 0;
  /// Base-learner options (feature_subsample inside is overridden).
  DecisionTreeOptions tree;
  std::uint64_t seed = 1;
};

/// A bagged ensemble of decision trees (Breiman 2001) serving as the GDR
/// learning component's classifier *and* as the active-learning committee
/// (Section 4.2): each tree is one committee member, the ensemble
/// prediction is the majority vote, and the disagreement entropy of the
/// votes is the learning-benefit (uncertainty) score used to order updates
/// for the user.
class RandomForest {
 public:
  explicit RandomForest(RandomForestOptions options = {})
      : options_(options) {}

  /// (Re)trains the committee on `data`. Deterministic given options.seed.
  /// Fails on an empty training set, an empty feature schema, a
  /// non-positive num_trees, or a bootstrap_fraction that is not finite
  /// and positive or asks for a bag of 2^32 or more examples; a failed
  /// call leaves the forest as it was. Each tree is rebuilt in its
  /// previous storage; the bootstrap bag and the split buffers come from a
  /// workspace local to the call.
  Status Train(const TrainingSet& data);

  /// The same training over a caller-owned workspace shared by every tree
  /// (its `bag` holds the bootstrap draws). A caller that retrains many
  /// forests one at a time passes them one workspace, so the buffers are
  /// held once and a warm retrain allocates nothing.
  Status Train(const TrainingSet& data, SplitWorkspace* workspace);

  bool trained() const { return !trees_.empty(); }
  int num_trees() const { return static_cast<int>(trees_.size()); }
  int num_classes() const { return num_classes_; }
  /// Committee member `i` (tests compare trees through it).
  const DecisionTree& tree(std::size_t i) const { return trees_[i]; }

  /// Batched committee evaluation over a row-major feature matrix:
  /// `features` holds `rows` examples of `stride` doubles each; `out` is
  /// resized to rows × num_classes (row-major) and filled with each row's
  /// per-class fraction of committee votes (each row sums to 1). Evaluated
  /// tree-at-a-time — every row descends tree 0, then every row descends
  /// tree 1, … — so one tree's flat node arrays stay hot across the whole
  /// batch instead of the whole forest being re-walked per row. Each row's
  /// accumulator receives its +1.0 votes in tree order and is divided once
  /// at the end, so a row's fractions do not depend on the batch around
  /// it.
  void VoteFractionsBatch(const double* features, std::size_t rows,
                          std::size_t stride, std::vector<double>* out) const;

  /// The committee's prediction from one row of vote fractions: the class
  /// with the most votes, ties broken toward the smaller class index.
  static int MajorityClass(std::span<const double> fractions);

  /// The paper's uncertainty score: entropy of one row of vote fractions
  /// with logarithm base = #classes, so the score is in [0, 1]
  /// (Section 4.2's worked example: votes {3/5, 1/5, 1/5} → 0.86).
  static double VoteEntropy(std::span<const double> fractions);

 private:
  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
};

}  // namespace gdr

#endif  // GDR_ML_RANDOM_FOREST_H_
