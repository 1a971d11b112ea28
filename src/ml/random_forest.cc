#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace gdr {

Status RandomForest::Train(const TrainingSet& data) {
  SplitWorkspace workspace;
  return Train(data, &workspace);
}

Status RandomForest::Train(const TrainingSet& data,
                           SplitWorkspace* workspace) {
  // Every way a tree can fail is checked here, before the committee is
  // touched, so a failed call leaves the forest as it was.
  if (options_.num_trees <= 0) {
    return Status::InvalidArgument("num_trees must be positive, got " +
                                   std::to_string(options_.num_trees));
  }
  if (!std::isfinite(options_.bootstrap_fraction) ||
      options_.bootstrap_fraction <= 0.0) {
    return Status::InvalidArgument(
        "bootstrap_fraction must be finite and positive, got " +
        std::to_string(options_.bootstrap_fraction));
  }
  if (data.empty()) {
    return Status::InvalidArgument("cannot train a forest on zero examples");
  }
  const std::size_t num_features = data.schema().num_features();
  if (num_features == 0) {
    return Status::InvalidArgument("feature schema is empty");
  }
  const std::size_t n = data.size();
  const double bag_examples =
      options_.bootstrap_fraction * static_cast<double>(n);
  // A tree counts its bag in 32 bits.
  if (bag_examples >=
      static_cast<double>(std::numeric_limits<std::uint32_t>::max())) {
    return Status::InvalidArgument("bootstrap bag of " +
                                   std::to_string(bag_examples) +
                                   " examples is too large");
  }
  DecisionTreeOptions tree_options = options_.tree;
  tree_options.feature_subsample =
      options_.feature_subsample > 0
          ? options_.feature_subsample
          : static_cast<int>(
                std::ceil(std::sqrt(static_cast<double>(num_features))));

  Rng rng(options_.seed);
  const std::size_t bag_size =
      std::max<std::size_t>(1, static_cast<std::size_t>(bag_examples));

  // The bag buffer and the split buffers serve every tree; the trees are
  // rebuilt in place, reusing their node arrays' capacity.
  std::vector<std::size_t>& bag = workspace->bag;
  bag.resize(bag_size);
  trees_.resize(static_cast<std::size_t>(options_.num_trees));
  for (DecisionTree& tree : trees_) {
    // Bootstrap bag: sample with replacement.
    for (std::size_t& index : bag) {
      index = static_cast<std::size_t>(rng.NextBounded(n));
    }
    const Status trained =
        tree.Train(data, bag, tree_options, &rng, workspace);
    if (!trained.ok()) {
      // Unreachable after the checks above; never keep a partial committee.
      trees_.clear();
      return trained;
    }
  }
  num_classes_ = data.num_classes();
  return Status::OK();
}

void RandomForest::VoteFractionsBatch(const double* features,
                                      std::size_t rows, std::size_t stride,
                                      std::vector<double>* out) const {
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  out->assign(rows * classes, 0.0);
  if (trees_.empty()) return;
  // Tree-at-a-time within row blocks: per row the accumulator sees the
  // same +1.0 sequence in tree order as a one-row call, so the sums (and
  // the final divisions) are independent of the batch. The blocking caps
  // how much of the feature matrix and vote output a tree pass streams,
  // keeping both resident across the tree loop — without it large batches
  // pay a full-matrix cache sweep per tree.
  constexpr std::size_t kRowBlock = 64;
  for (std::size_t base = 0; base < rows; base += kRowBlock) {
    const std::size_t end = std::min(rows, base + kRowBlock);
    for (const DecisionTree& tree : trees_) {
      const double* row = features + base * stride;
      double* votes = out->data() + base * classes;
      for (std::size_t r = base; r < end; ++r) {
        votes[tree.Predict(row)] += 1.0;
        row += stride;
        votes += classes;
      }
    }
  }
  const double denominator = static_cast<double>(trees_.size());
  for (double& f : *out) f /= denominator;
}

int RandomForest::MajorityClass(std::span<const double> fractions) {
  return static_cast<int>(std::distance(
      fractions.begin(),
      std::max_element(fractions.begin(), fractions.end())));
}

double RandomForest::VoteEntropy(std::span<const double> fractions) {
  if (fractions.size() < 2) return 0.0;
  const double log_base = std::log(static_cast<double>(fractions.size()));
  double h = 0.0;
  for (double f : fractions) {
    if (f <= 0.0) continue;
    h -= f * std::log(f) / log_base;
  }
  return h;
}

}  // namespace gdr
