// Test-only reference decision-tree builder: the map/sort split search the
// counting search in ml/decision_tree.cc replaced.
//
// The oracle shares no split-search code with production: it reads each
// example's feature doubles (never the TrainingSet's value codes), groups
// categorical values in a std::map, sorts (value, label) pairs for numeric
// sweeps, and copies item vectors into fresh left/right vectors per node.
// Its entropy arithmetic, tie-break, threshold midpoint, Rng draws and
// pre-order node appends follow the same contract, so the two must produce
// the same node arrays bit for bit.
#ifndef GDR_TESTS_TESTING_SPLIT_ORACLE_H_
#define GDR_TESTS_TESTING_SPLIT_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/example.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace gdr::split_testing {

/// A tree in DecisionTree's flat layout: one entry per node in pre-order.
struct OracleTree {
  std::vector<std::int32_t> feature;  // -1 marks a leaf
  std::vector<std::uint8_t> categorical;
  std::vector<double> threshold;
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  std::vector<std::int32_t> majority;
};

namespace internal {

inline double SplitEntropy(const std::vector<std::size_t>& left,
                           const std::vector<std::size_t>& right) {
  const std::size_t nl =
      std::accumulate(left.begin(), left.end(), std::size_t{0});
  const std::size_t nr =
      std::accumulate(right.begin(), right.end(), std::size_t{0});
  const std::size_t n = nl + nr;
  if (n == 0) return 0.0;
  return (static_cast<double>(nl) * CountsEntropy(left) +
          static_cast<double>(nr) * CountsEntropy(right)) /
         static_cast<double>(n);
}

inline std::int32_t AppendNode(OracleTree* tree, std::int32_t feature,
                               bool categorical, double threshold,
                               std::int32_t majority) {
  tree->feature.push_back(feature);
  tree->categorical.push_back(categorical ? 1 : 0);
  tree->threshold.push_back(threshold);
  tree->left.push_back(-1);
  tree->right.push_back(-1);
  tree->majority.push_back(majority);
  return static_cast<std::int32_t>(tree->feature.size() - 1);
}

inline std::int32_t MakeLeaf(const TrainingSet& data,
                             const std::vector<std::size_t>& items,
                             OracleTree* tree) {
  std::vector<std::size_t> counts(
      static_cast<std::size_t>(data.num_classes()), 0);
  for (std::size_t i : items) {
    counts[static_cast<std::size_t>(data.example(i).label)]++;
  }
  std::size_t best = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > counts[best]) best = c;
  }
  return AppendNode(tree, -1, false, 0.0, static_cast<std::int32_t>(best));
}

inline std::int32_t Build(const TrainingSet& data,
                          std::vector<std::size_t>& items, int depth,
                          const DecisionTreeOptions& options, Rng* rng,
                          OracleTree* tree) {
  const int num_classes = data.num_classes();
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes), 0);
  for (std::size_t i : items) {
    counts[static_cast<std::size_t>(data.example(i).label)]++;
  }
  const double parent_entropy = CountsEntropy(counts);

  const bool pure = std::count(counts.begin(), counts.end(), items.size()) > 0;
  if (pure || depth >= options.max_depth ||
      items.size() < static_cast<std::size_t>(options.min_samples_split)) {
    return MakeLeaf(data, items, tree);
  }

  const std::size_t num_features = data.schema().num_features();
  std::vector<std::size_t> candidates;
  if (options.feature_subsample > 0 &&
      static_cast<std::size_t>(options.feature_subsample) < num_features) {
    candidates = rng->SampleWithoutReplacement(
        num_features, static_cast<std::size_t>(options.feature_subsample));
    std::sort(candidates.begin(), candidates.end());
  } else {
    candidates.resize(num_features);
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  double best_gain = 0.0;
  std::int32_t best_feature = -1;
  bool best_categorical = false;
  double best_threshold = 0.0;
  for (std::size_t f : candidates) {
    if (data.schema().IsCategorical(f)) {
      std::map<double, std::vector<std::size_t>> per_value;
      for (std::size_t i : items) {
        auto& vc = per_value[data.example(i).features[f]];
        if (vc.empty()) vc.resize(static_cast<std::size_t>(num_classes), 0);
        vc[static_cast<std::size_t>(data.example(i).label)]++;
      }
      if (per_value.size() < 2) continue;
      for (const auto& [value, value_counts] : per_value) {
        std::vector<std::size_t> rest(counts.size());
        for (std::size_t c = 0; c < counts.size(); ++c) {
          rest[c] = counts[c] - value_counts[c];
        }
        const double gain = parent_entropy - SplitEntropy(value_counts, rest);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<std::int32_t>(f);
          best_categorical = true;
          best_threshold = value;
        }
      }
    } else {
      std::vector<std::pair<double, int>> sorted;
      for (std::size_t i : items) {
        sorted.emplace_back(data.example(i).features[f],
                            data.example(i).label);
      }
      std::sort(sorted.begin(), sorted.end());
      std::vector<std::size_t> left(counts.size(), 0);
      std::vector<std::size_t> right = counts;
      for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
        left[static_cast<std::size_t>(sorted[k].second)]++;
        right[static_cast<std::size_t>(sorted[k].second)]--;
        if (sorted[k].first == sorted[k + 1].first) continue;
        const double gain = parent_entropy - SplitEntropy(left, right);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<std::int32_t>(f);
          best_categorical = false;
          best_threshold = sorted[k].first +
                           (sorted[k + 1].first - sorted[k].first) / 2.0;
        }
      }
    }
  }

  constexpr double kMinGain = 1e-12;
  if (best_feature < 0 || best_gain <= kMinGain) {
    return MakeLeaf(data, items, tree);
  }

  std::vector<std::size_t> left_items;
  std::vector<std::size_t> right_items;
  for (std::size_t i : items) {
    const double x =
        data.example(i).features[static_cast<std::size_t>(best_feature)];
    const bool goes_left =
        best_categorical ? (x == best_threshold) : (x <= best_threshold);
    (goes_left ? left_items : right_items).push_back(i);
  }
  if (left_items.empty() || right_items.empty()) {
    return MakeLeaf(data, items, tree);
  }

  const std::int32_t node = AppendNode(tree, best_feature, best_categorical,
                                       best_threshold, 0);
  const std::int32_t left =
      Build(data, left_items, depth + 1, options, rng, tree);
  const std::int32_t right =
      Build(data, right_items, depth + 1, options, rng, tree);
  tree->left[static_cast<std::size_t>(node)] = left;
  tree->right[static_cast<std::size_t>(node)] = right;
  return node;
}

}  // namespace internal

/// DecisionTree::Train's contract on `indices` (duplicates allowed);
/// `rng` is drawn from exactly as the production builder draws.
inline OracleTree OracleTrainTree(const TrainingSet& data,
                                  std::vector<std::size_t> indices,
                                  const DecisionTreeOptions& options,
                                  Rng* rng) {
  OracleTree tree;
  internal::Build(data, indices, /*depth=*/0, options, rng, &tree);
  return tree;
}

/// RandomForest::Train's committee: the same seed, bag draws and per-tree
/// feature subsample, with every tree built by the oracle.
inline std::vector<OracleTree> OracleTrainForest(
    const TrainingSet& data, const RandomForestOptions& options) {
  DecisionTreeOptions tree_options = options.tree;
  const std::size_t num_features = data.schema().num_features();
  tree_options.feature_subsample =
      options.feature_subsample > 0
          ? options.feature_subsample
          : static_cast<int>(
                std::ceil(std::sqrt(static_cast<double>(num_features))));
  Rng rng(options.seed);
  const std::size_t n = data.size();
  const std::size_t bag_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.bootstrap_fraction *
                                  static_cast<double>(n)));
  std::vector<OracleTree> trees;
  for (int t = 0; t < options.num_trees; ++t) {
    std::vector<std::size_t> bag(bag_size);
    for (std::size_t& index : bag) {
      index = static_cast<std::size_t>(rng.NextBounded(n));
    }
    trees.push_back(OracleTrainTree(data, bag, tree_options, &rng));
  }
  return trees;
}

}  // namespace gdr::split_testing

#endif  // GDR_TESTS_TESTING_SPLIT_ORACLE_H_
