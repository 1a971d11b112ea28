#ifndef GDR_ML_DECISION_TREE_H_
#define GDR_ML_DECISION_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/example.h"
#include "util/result.h"
#include "util/rng.h"

namespace gdr {

struct DecisionTreeOptions {
  /// Maximum tree depth (root = depth 0).
  int max_depth = 24;
  /// Nodes with fewer examples become leaves.
  int min_samples_split = 2;
  /// Number of features considered at each split; 0 means all (plain
  /// decision tree), ⌈√M⌉ is the random-forest default (set by the forest).
  int feature_subsample = 0;
};

/// Training buffers reused across nodes and trees. A forest passes one to
/// every tree of a retrain, and a LearnerBank keeps one for all of its
/// forests; DecisionTree::Train resizes the buffers within their kept
/// capacity, so a warm retrain allocates nothing.
///  * `bag`: a forest's bootstrap draws, filled by RandomForest::Train
///    (DecisionTree::Train reads only its `bag` argument);
///  * `slots`: per example of the training set, its multiplicity in the
///    bag (0 = not drawn) and its label, read together by every count;
///  * `items`: the bag's distinct examples, partitioned in place per node;
///  * the (levels × classes) count histogram and the per-level bag counts
///    of one node and feature, with the list of levels the node touched —
///    both all-zero between split searches;
///  * the candidate features and the node/left/right class counts.
struct SplitWorkspace {
  struct Slot {
    std::uint32_t weight = 0;
    std::uint32_t label = 0;
  };
  std::vector<std::size_t> bag;
  std::vector<Slot> slots;
  std::vector<std::size_t> items;
  std::vector<std::size_t> histogram;      // code * classes + label
  std::vector<std::uint32_t> level_items;  // bag items per code in the node
  std::vector<std::uint32_t> touched;      // codes with level_items > 0
  std::vector<std::size_t> candidates;
  std::vector<std::size_t> counts;
  std::vector<std::size_t> left;
  std::vector<std::size_t> right;
};

/// A binary classification tree trained by recursive information-gain
/// splitting (entropy impurity), supporting
///  * numeric features:      x[f] <= threshold,
///  * categorical features:  x[f] == value  (one-vs-rest),
/// with optional per-split random feature subsampling — the standard
/// random-forest base learner construction (Breiman 2001), which the paper
/// uses via WEKA. One-vs-rest equality splits keep high-cardinality
/// categorical attributes (city names, zip codes) tractable.
///
/// Training works on the TrainingSet's dense value codes over a weighted
/// bag: the bootstrap bag is compacted into its distinct examples, each
/// carrying its multiplicity, so every count is the bag's count while the
/// passes visit each drawn example once. Per node and candidate feature
/// one counting pass fills a (levels × classes) histogram. Categorical
/// features score each touched level one-vs-rest in any order, the
/// smallest value winning ties; numeric features sort the touched levels
/// by value and sweep thresholds. The node's items are a [begin, end)
/// range of one index buffer, partitioned in place for the children. The
/// split search allocates nothing per node.
///
/// Nodes are stored structure-of-arrays — feature / threshold / left /
/// right / majority as parallel arrays in Build's pre-order — and Build
/// appends to them directly. A leaf keeps only its majority class (the
/// committee's vote); batch evaluation touches a handful of dense arrays
/// instead of chasing per-node structs.
///
/// Deterministic given the training data, options, and Rng state.
class DecisionTree {
 public:
  DecisionTree() = default;

  /// Trains on `indices` into `data` (duplicates allowed — this is how
  /// bootstrap bags are passed). Resets prior contents. `rng` is needed
  /// only when options.feature_subsample > 0 (may be nullptr otherwise).
  /// Fails on an empty index set, an index past the training set, a bag
  /// of 2^32 or more indices, or an empty schema; a failed call leaves the
  /// tree as it was.
  Status Train(const TrainingSet& data,
               const std::vector<std::size_t>& indices,
               const DecisionTreeOptions& options, Rng* rng);

  /// Convenience: trains on all examples of `data`.
  Status Train(const TrainingSet& data, const DecisionTreeOptions& options,
               Rng* rng = nullptr);

  /// The same training over a caller-owned workspace, reused across calls:
  /// training allocates only when a buffer or node array outgrows its
  /// capacity.
  Status Train(const TrainingSet& data, std::span<const std::size_t> bag,
               const DecisionTreeOptions& options, Rng* rng,
               SplitWorkspace* workspace);

  bool trained() const { return !flat_feature_.empty(); }

  /// Majority class at the reached leaf (flat-array descent).
  int Predict(const std::vector<double>& features) const {
    return Predict(features.data());
  }

  /// Raw-pointer overload for batch callers holding a row-major feature
  /// matrix; `features` must point at num_features doubles.
  int Predict(const double* features) const {
    return flat_majority_[static_cast<std::size_t>(DescendFlat(features))];
  }

  /// Number of nodes (diagnostics / tests).
  std::size_t node_count() const { return flat_feature_.size(); }
  int num_classes() const { return num_classes_; }

  /// Read-only views of the node arrays (tests compare trees through
  /// these).
  std::span<const std::int32_t> node_features() const { return flat_feature_; }
  std::span<const std::uint8_t> node_categorical() const {
    return flat_categorical_;
  }
  std::span<const double> node_thresholds() const { return flat_threshold_; }
  std::span<const std::int32_t> node_left() const { return flat_left_; }
  std::span<const std::int32_t> node_right() const { return flat_right_; }
  std::span<const std::int32_t> node_majority() const {
    return flat_majority_;
  }

 private:
  // Recursive builder over the distinct bag items [begin, end), weighted
  // by ws->slots; returns the index of the created node.
  std::int32_t Build(const TrainingSet& data, std::size_t* begin,
                     std::size_t* end, int depth,
                     const DecisionTreeOptions& options, Rng* rng,
                     SplitWorkspace* ws);

  // Leaf voting for the first class with the most of `counts`.
  std::int32_t MakeLeaf(const std::vector<std::size_t>& counts);

  // Appends one node to every array; returns its index.
  std::int32_t AppendNode(std::int32_t feature, bool categorical,
                          double threshold, std::int32_t majority);

  // Descent to a leaf's node index.
  std::int32_t DescendFlat(const double* features) const {
    std::int32_t i = 0;
    std::int32_t f = flat_feature_[0];
    while (f >= 0) {
      const std::size_t n = static_cast<std::size_t>(i);
      const double x = features[static_cast<std::size_t>(f)];
      const bool goes_left = flat_categorical_[n] != 0
                                 ? (x == flat_threshold_[n])
                                 : (x <= flat_threshold_[n]);
      i = goes_left ? flat_left_[n] : flat_right_[n];
      f = flat_feature_[static_cast<std::size_t>(i)];
    }
    return i;
  }

  int num_classes_ = 0;

  // One entry per node. An internal node sends an example left when
  //   numeric:      features[feature] <= threshold
  //   categorical:  features[feature] == threshold
  std::vector<std::int32_t> flat_feature_;     // -1 marks a leaf
  std::vector<std::uint8_t> flat_categorical_;
  std::vector<double> flat_threshold_;
  std::vector<std::int32_t> flat_left_;
  std::vector<std::int32_t> flat_right_;
  std::vector<std::int32_t> flat_majority_;
};

/// Shannon entropy (nats) of a count histogram; 0 for empty/pure counts.
double CountsEntropy(const std::vector<std::size_t>& counts);

}  // namespace gdr

#endif  // GDR_ML_DECISION_TREE_H_
