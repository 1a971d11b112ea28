#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace gdr {

double CountsEntropy(const std::vector<std::size_t>& counts) {
  const std::size_t total =
      std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

namespace {

// Weighted post-split entropy of a two-way partition.
double SplitEntropy(const std::vector<std::size_t>& left,
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

struct SplitChoice {
  double gain = 0.0;
  std::int32_t feature = -1;
  bool categorical = false;
  double threshold = 0.0;
};

}  // namespace

Status DecisionTree::Train(const TrainingSet& data,
                           const std::vector<std::size_t>& indices,
                           const DecisionTreeOptions& options, Rng* rng) {
  if (indices.empty()) {
    return Status::InvalidArgument("cannot train a tree on zero examples");
  }
  if (data.schema().num_features() == 0) {
    return Status::InvalidArgument("feature schema is empty");
  }
  if (options.feature_subsample > 0 && rng == nullptr) {
    return Status::InvalidArgument(
        "feature subsampling requires an Rng");
  }
  *this = DecisionTree();
  num_classes_ = data.num_classes();
  std::vector<std::size_t> items = indices;
  Build(data, items, /*depth=*/0, options, rng);
  return Status::OK();
}

std::int32_t DecisionTree::AppendNode(std::int32_t feature, bool categorical,
                                      double threshold, std::int32_t majority,
                                      std::int32_t dist_offset) {
  flat_feature_.push_back(feature);
  flat_categorical_.push_back(categorical ? 1 : 0);
  flat_threshold_.push_back(threshold);
  flat_left_.push_back(-1);
  flat_right_.push_back(-1);
  flat_majority_.push_back(majority);
  flat_dist_offset_.push_back(dist_offset);
  return static_cast<std::int32_t>(flat_feature_.size() - 1);
}

Status DecisionTree::Train(const TrainingSet& data,
                           const DecisionTreeOptions& options, Rng* rng) {
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  return Train(data, all, options, rng);
}

std::int32_t DecisionTree::MakeLeaf(const TrainingSet& data,
                                    const std::vector<std::size_t>& items) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (std::size_t i : items) {
    counts[static_cast<std::size_t>(data.example(i).label)]++;
  }
  const std::int32_t offset = static_cast<std::int32_t>(dist_pool_.size());
  std::size_t best = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    dist_pool_.push_back(static_cast<double>(counts[c]) /
                         static_cast<double>(items.size()));
    if (counts[c] > counts[best]) best = c;
  }
  return AppendNode(/*feature=*/-1, /*categorical=*/false, /*threshold=*/0.0,
                    static_cast<std::int32_t>(best), offset);
}

std::int32_t DecisionTree::Build(const TrainingSet& data,
                                 std::vector<std::size_t>& items, int depth,
                                 const DecisionTreeOptions& options,
                                 Rng* rng) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (std::size_t i : items) {
    counts[static_cast<std::size_t>(data.example(i).label)]++;
  }
  const double parent_entropy = CountsEntropy(counts);

  const bool pure = std::count(counts.begin(), counts.end(), items.size()) > 0;
  if (pure || depth >= options.max_depth ||
      items.size() < static_cast<std::size_t>(options.min_samples_split)) {
    return MakeLeaf(data, items);
  }

  // Candidate features: all, or a random subset of M' (forest mode).
  const std::size_t num_features = data.schema().num_features();
  std::vector<std::size_t> candidates;
  if (options.feature_subsample > 0 &&
      static_cast<std::size_t>(options.feature_subsample) < num_features) {
    candidates = rng->SampleWithoutReplacement(
        num_features, static_cast<std::size_t>(options.feature_subsample));
    std::sort(candidates.begin(), candidates.end());  // determinism of ties
  } else {
    candidates.resize(num_features);
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  SplitChoice best;
  for (std::size_t f : candidates) {
    if (data.schema().IsCategorical(f)) {
      // One-vs-rest on each value present in this node.
      std::map<double, std::vector<std::size_t>> per_value;
      for (std::size_t i : items) {
        auto& vc = per_value[data.example(i).features[f]];
        if (vc.empty()) vc.resize(static_cast<std::size_t>(num_classes_), 0);
        vc[static_cast<std::size_t>(data.example(i).label)]++;
      }
      if (per_value.size() < 2) continue;
      for (const auto& [value, value_counts] : per_value) {
        std::vector<std::size_t> rest(counts.size());
        for (std::size_t c = 0; c < counts.size(); ++c) {
          rest[c] = counts[c] - value_counts[c];
        }
        const double gain =
            parent_entropy - SplitEntropy(value_counts, rest);
        if (gain > best.gain) {
          best = {gain, static_cast<std::int32_t>(f), true, value};
        }
      }
    } else {
      // Numeric: sweep thresholds between distinct consecutive values.
      std::vector<std::pair<double, int>> sorted;
      sorted.reserve(items.size());
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
        if (gain > best.gain) {
          const double threshold =
              sorted[k].first +
              (sorted[k + 1].first - sorted[k].first) / 2.0;
          best = {gain, static_cast<std::int32_t>(f), false, threshold};
        }
      }
    }
  }

  constexpr double kMinGain = 1e-12;
  if (best.feature < 0 || best.gain <= kMinGain) {
    return MakeLeaf(data, items);
  }

  std::vector<std::size_t> left_items;
  std::vector<std::size_t> right_items;
  for (std::size_t i : items) {
    const double x = data.example(i).features[static_cast<std::size_t>(
        best.feature)];
    const bool goes_left =
        best.categorical ? (x == best.threshold) : (x <= best.threshold);
    (goes_left ? left_items : right_items).push_back(i);
  }
  if (left_items.empty() || right_items.empty()) {
    return MakeLeaf(data, items);  // degenerate split (numeric duplicates)
  }
  items.clear();
  items.shrink_to_fit();

  // Pre-order: the node takes its index before its subtrees are built.
  const std::int32_t node_index =
      AppendNode(best.feature, best.categorical, best.threshold,
                 /*majority=*/0, /*dist_offset=*/-1);
  const std::int32_t left_index =
      Build(data, left_items, depth + 1, options, rng);
  const std::int32_t right_index =
      Build(data, right_items, depth + 1, options, rng);
  flat_left_[static_cast<std::size_t>(node_index)] = left_index;
  flat_right_[static_cast<std::size_t>(node_index)] = right_index;
  return node_index;
}

void DecisionTree::PredictDistributionInto(const double* features,
                                           std::vector<double>* out) const {
  const std::size_t leaf = static_cast<std::size_t>(DescendFlat(features));
  const std::size_t offset =
      static_cast<std::size_t>(flat_dist_offset_[leaf]);
  out->assign(dist_pool_.begin() + static_cast<std::ptrdiff_t>(offset),
              dist_pool_.begin() +
                  static_cast<std::ptrdiff_t>(offset +
                                              static_cast<std::size_t>(
                                                  num_classes_)));
}

}  // namespace gdr
