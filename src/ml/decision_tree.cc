#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

namespace gdr {

namespace {

// Shannon entropy of `classes` counts summing to `total`. Callers that
// already hold the total pass it in; the p·log p terms and their order are
// CountsEntropy's.
double CountsEntropy(const std::size_t* counts, std::size_t classes,
                     std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    if (counts[c] == 0) continue;
    const double p =
        static_cast<double>(counts[c]) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

// Weighted post-split entropy of a two-way partition with nl and nr items.
double SplitEntropy(const std::size_t* left, std::size_t nl,
                    const std::size_t* right, std::size_t nr,
                    std::size_t classes) {
  const std::size_t n = nl + nr;
  if (n == 0) return 0.0;
  return (static_cast<double>(nl) * CountsEntropy(left, classes, nl) +
          static_cast<double>(nr) * CountsEntropy(right, classes, nr)) /
         static_cast<double>(n);
}

}  // namespace

double CountsEntropy(const std::vector<std::size_t>& counts) {
  const std::size_t total =
      std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  return CountsEntropy(counts.data(), counts.size(), total);
}

namespace {

struct SplitChoice {
  double gain = 0.0;
  std::int32_t feature = -1;
  bool categorical = false;
  double threshold = 0.0;
};

// One-vs-rest gain of the level whose class-count row is `row` (`nl` bag
// items) in a node of `n` items with class counts ws->counts.
double OneVsRestGain(const std::size_t* row, std::size_t nl, std::size_t n,
                     double parent_entropy, SplitWorkspace* ws) {
  const std::size_t classes = ws->counts.size();
  for (std::size_t c = 0; c < classes; ++c) {
    ws->right[c] = ws->counts[c] - row[c];
  }
  return parent_entropy -
         SplitEntropy(row, nl, ws->right.data(), n - nl, classes);
}

// Best split of the distinct items [begin, end) holding `n` bag items,
// over ws->candidates, whose class counts are ws->counts. Per candidate
// feature one counting pass fills the (levels × classes) histogram with
// bag multiplicities and lists the touched levels. A categorical feature
// scores every touched level and keeps the highest gain, the smallest
// value on ties; a numeric one sweeps the touched levels in ascending
// value order. Either way every gain, threshold and strict-`>` tie-break
// matches a sweep over value-sorted bag items.
SplitChoice BestSplit(const TrainingSet& data, const std::size_t* begin,
                      const std::size_t* end, std::size_t n,
                      double parent_entropy, SplitWorkspace* ws) {
  const std::size_t classes = ws->counts.size();
  std::vector<std::size_t>& left = ws->left;
  std::vector<std::size_t>& right = ws->right;
  std::vector<std::uint32_t>& touched = ws->touched;
  SplitChoice best;
  for (std::size_t f : ws->candidates) {
    for (const std::size_t* it = begin; it != end; ++it) {
      const std::uint32_t code = data.code(*it, f);
      const SplitWorkspace::Slot slot = ws->slots[*it];
      if (ws->level_items[code] == 0) touched.push_back(code);
      ws->level_items[code] += slot.weight;
      ws->histogram[code * classes + slot.label] += slot.weight;
    }
    const std::vector<double>& levels = data.levels(f);
    if (touched.size() >= 2) {
      if (data.schema().IsCategorical(f)) {
        // One-vs-rest on each value present in this node.
        double feature_gain = -std::numeric_limits<double>::infinity();
        std::uint32_t feature_code = touched.front();
        for (std::uint32_t code : touched) {
          const std::size_t* row = &ws->histogram[code * classes];
          const std::size_t nl = ws->level_items[code];
          const double gain = OneVsRestGain(row, nl, n, parent_entropy, ws);
          if (gain > feature_gain ||
              (gain == feature_gain && levels[code] < levels[feature_code])) {
            feature_gain = gain;
            feature_code = code;
          }
        }
        if (feature_gain > best.gain) {
          best = {feature_gain, static_cast<std::int32_t>(f), true,
                  levels[feature_code]};
        }
      } else {
        // Numeric: sweep thresholds between distinct consecutive values.
        std::sort(touched.begin(), touched.end(),
                  [&levels](std::uint32_t a, std::uint32_t b) {
                    return levels[a] < levels[b];
                  });
        std::fill(left.begin(), left.end(), 0);
        right = ws->counts;
        std::size_t nl = 0;
        for (std::size_t k = 0; k + 1 < touched.size(); ++k) {
          const std::size_t* row = &ws->histogram[touched[k] * classes];
          for (std::size_t c = 0; c < classes; ++c) {
            left[c] += row[c];
            right[c] -= row[c];
          }
          nl += ws->level_items[touched[k]];
          const double gain =
              parent_entropy -
              SplitEntropy(left.data(), nl, right.data(), n - nl, classes);
          if (gain > best.gain) {
            const double lower = levels[touched[k]];
            const double upper = levels[touched[k + 1]];
            const double threshold = lower + (upper - lower) / 2.0;
            best = {gain, static_cast<std::int32_t>(f), false, threshold};
          }
        }
      }
    }
    // Leave the histogram zeroed for the next feature.
    for (std::uint32_t code : touched) {
      ws->level_items[code] = 0;
      std::fill_n(ws->histogram.begin() +
                      static_cast<std::ptrdiff_t>(code * classes),
                  classes, 0);
    }
    touched.clear();
  }
  return best;
}

}  // namespace

Status DecisionTree::Train(const TrainingSet& data,
                           const std::vector<std::size_t>& indices,
                           const DecisionTreeOptions& options, Rng* rng) {
  SplitWorkspace workspace;
  return Train(data, indices, options, rng, &workspace);
}

Status DecisionTree::Train(const TrainingSet& data,
                           const DecisionTreeOptions& options, Rng* rng) {
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  SplitWorkspace workspace;
  return Train(data, all, options, rng, &workspace);
}

Status DecisionTree::Train(const TrainingSet& data,
                           std::span<const std::size_t> bag,
                           const DecisionTreeOptions& options, Rng* rng,
                           SplitWorkspace* workspace) {
  if (bag.empty()) {
    return Status::InvalidArgument("cannot train a tree on zero examples");
  }
  // Multiplicities and per-node counts are 32-bit.
  if (bag.size() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("bag of " + std::to_string(bag.size()) +
                                   " indices is too large");
  }
  const std::size_t n = data.size();
  for (std::size_t index : bag) {
    if (index >= n) {
      return Status::InvalidArgument(
          "bag index " + std::to_string(index) + " is past the " +
          std::to_string(n) + "-example training set");
    }
  }
  const std::size_t num_features = data.schema().num_features();
  if (num_features == 0) {
    return Status::InvalidArgument("feature schema is empty");
  }
  if (options.feature_subsample > 0 && rng == nullptr) {
    return Status::InvalidArgument(
        "feature subsampling requires an Rng");
  }
  // Reset, keeping the node arrays' capacity for the rebuild.
  flat_feature_.clear();
  flat_categorical_.clear();
  flat_threshold_.clear();
  flat_left_.clear();
  flat_right_.clear();
  flat_majority_.clear();
  num_classes_ = data.num_classes();

  // Compact the bag into its distinct examples with their multiplicities.
  workspace->slots.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    workspace->slots[i] = {
        0, static_cast<std::uint32_t>(data.example(i).label)};
  }
  workspace->items.clear();
  for (std::size_t index : bag) {
    if (workspace->slots[index].weight++ == 0) {
      workspace->items.push_back(index);
    }
  }

  // The histogram and per-level counts are all-zero between split
  // searches, so resizing them keeps them so without a refill.
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  std::size_t max_levels = 0;
  for (std::size_t f = 0; f < num_features; ++f) {
    max_levels = std::max(max_levels, data.levels(f).size());
  }
  workspace->histogram.resize(max_levels * classes);
  workspace->level_items.resize(max_levels);
  workspace->touched.clear();
  workspace->touched.reserve(max_levels);
  workspace->candidates.reserve(num_features);
  workspace->counts.resize(classes);
  workspace->left.resize(classes);
  workspace->right.resize(classes);
  std::size_t* items = workspace->items.data();
  Build(data, items, items + workspace->items.size(), /*depth=*/0, options,
        rng, workspace);
  return Status::OK();
}

std::int32_t DecisionTree::AppendNode(std::int32_t feature, bool categorical,
                                      double threshold,
                                      std::int32_t majority) {
  flat_feature_.push_back(feature);
  flat_categorical_.push_back(categorical ? 1 : 0);
  flat_threshold_.push_back(threshold);
  flat_left_.push_back(-1);
  flat_right_.push_back(-1);
  flat_majority_.push_back(majority);
  return static_cast<std::int32_t>(flat_feature_.size() - 1);
}

std::int32_t DecisionTree::MakeLeaf(const std::vector<std::size_t>& counts) {
  std::size_t best = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > counts[best]) best = c;
  }
  return AppendNode(/*feature=*/-1, /*categorical=*/false, /*threshold=*/0.0,
                    static_cast<std::int32_t>(best));
}

std::int32_t DecisionTree::Build(const TrainingSet& data, std::size_t* begin,
                                 std::size_t* end, int depth,
                                 const DecisionTreeOptions& options, Rng* rng,
                                 SplitWorkspace* ws) {
  // ws->counts holds this node's class counts until the split is chosen;
  // the children overwrite it only after this node is done with it.
  std::vector<std::size_t>& counts = ws->counts;
  std::fill(counts.begin(), counts.end(), 0);
  std::size_t n = 0;  // bag items, duplicates included
  for (const std::size_t* it = begin; it != end; ++it) {
    const SplitWorkspace::Slot slot = ws->slots[*it];
    counts[slot.label] += slot.weight;
    n += slot.weight;
  }
  const double parent_entropy = CountsEntropy(counts.data(), counts.size(), n);

  const bool pure = std::count(counts.begin(), counts.end(), n) > 0;
  if (pure || depth >= options.max_depth ||
      n < static_cast<std::size_t>(options.min_samples_split)) {
    return MakeLeaf(counts);
  }

  // Candidate features: all, or a random subset of M' (forest mode).
  const std::size_t num_features = data.schema().num_features();
  std::vector<std::size_t>& candidates = ws->candidates;
  if (options.feature_subsample > 0 &&
      static_cast<std::size_t>(options.feature_subsample) < num_features) {
    rng->SampleWithoutReplacementInto(
        num_features, static_cast<std::size_t>(options.feature_subsample),
        &candidates);
    std::sort(candidates.begin(), candidates.end());  // determinism of ties
  } else {
    candidates.resize(num_features);
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  const SplitChoice best =
      BestSplit(data, begin, end, n, parent_entropy, ws);
  constexpr double kMinGain = 1e-12;
  if (best.feature < 0 || best.gain <= kMinGain) {
    return MakeLeaf(counts);
  }

  // In-place partition of the distinct items; item order inside a node
  // does not matter, since every statistic above is a count.
  const std::size_t f = static_cast<std::size_t>(best.feature);
  const std::vector<double>& levels = data.levels(f);
  std::size_t* mid = std::partition(begin, end, [&](std::size_t i) {
    const double x = levels[data.code(i, f)];
    return best.categorical ? (x == best.threshold) : (x <= best.threshold);
  });
  if (mid == begin || mid == end) {
    // Degenerate split: the midpoint of adjacent doubles rounded onto the
    // upper value, or b - a overflowed.
    return MakeLeaf(counts);
  }

  // Pre-order: the node takes its index before its subtrees are built.
  const std::int32_t node_index =
      AppendNode(best.feature, best.categorical, best.threshold,
                 /*majority=*/0);
  const std::int32_t left_index =
      Build(data, begin, mid, depth + 1, options, rng, ws);
  const std::int32_t right_index =
      Build(data, mid, end, depth + 1, options, rng, ws);
  flat_left_[static_cast<std::size_t>(node_index)] = left_index;
  flat_right_[static_cast<std::size_t>(node_index)] = right_index;
  return node_index;
}

}  // namespace gdr
