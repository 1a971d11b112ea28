#ifndef GDR_ML_EXAMPLE_H_
#define GDR_ML_EXAMPLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace gdr {

/// Feature kinds supported by the learners. Categorical features hold
/// interned ids (compared only for equality); numeric features hold reals
/// (compared by threshold).
enum class FeatureType : std::uint8_t {
  kCategorical = 0,
  kNumeric = 1,
};

struct FeatureDesc {
  std::string name;
  FeatureType type = FeatureType::kCategorical;
};

/// Describes the feature vector layout shared by a training set and the
/// models trained on it.
class FeatureSchema {
 public:
  FeatureSchema() = default;
  explicit FeatureSchema(std::vector<FeatureDesc> features)
      : features_(std::move(features)) {}

  std::size_t num_features() const { return features_.size(); }
  const FeatureDesc& feature(std::size_t i) const { return features_[i]; }
  bool IsCategorical(std::size_t i) const {
    return features_[i].type == FeatureType::kCategorical;
  }

 private:
  std::vector<FeatureDesc> features_;
};

/// One labeled example. Feature values are stored uniformly as doubles;
/// categorical ids are small non-negative integers, exactly representable.
struct Example {
  std::vector<double> features;
  int label = 0;
};

/// A labeled training set with a fixed feature schema and class count.
/// Examples accumulate incrementally as user feedback arrives (Section 4.2,
/// "the newly labeled examples are added to the learner training dataset").
///
/// Add also gives every feature value a dense per-feature code: codes are
/// handed out in first-appearance order, levels(f)[code] is the value, and
/// the codes of all examples sit in one flat row-major example × feature
/// matrix. The coding is done once per example, so every later forest
/// (re)train counts codes instead of re-grouping doubles. Values equal
/// under `==` share a code (+0.0 and -0.0 included).
class TrainingSet {
 public:
  TrainingSet() = default;
  TrainingSet(FeatureSchema schema, int num_classes)
      : schema_(std::move(schema)),
        num_classes_(num_classes),
        levels_(schema_.num_features()),
        level_codes_(schema_.num_features()) {}

  /// Appends an example; fails on arity mismatch, label out of range, or a
  /// non-finite feature value (NaN has no order and an infinite value
  /// makes a threshold midpoint NaN). A failed call changes nothing.
  Status Add(Example example);

  const FeatureSchema& schema() const { return schema_; }
  int num_classes() const { return num_classes_; }
  std::size_t size() const { return examples_.size(); }
  bool empty() const { return examples_.empty(); }
  const Example& example(std::size_t i) const { return examples_[i]; }
  const std::vector<Example>& examples() const { return examples_; }

  /// Dense code of example i's feature f: levels(f)[code(i, f)] equals
  /// example(i).features[f].
  std::uint32_t code(std::size_t i, std::size_t f) const {
    return codes_[i * schema_.num_features() + f];
  }
  /// Distinct values of feature f, indexed by code.
  const std::vector<double>& levels(std::size_t f) const { return levels_[f]; }

  /// Per-class example counts (size num_classes()).
  std::vector<std::size_t> ClassCounts() const;

 private:
  FeatureSchema schema_;
  int num_classes_ = 0;
  std::vector<Example> examples_;
  std::vector<std::uint32_t> codes_;        // size() × num_features, row-major
  std::vector<std::vector<double>> levels_;  // per feature: code → value
  std::vector<std::unordered_map<double, std::uint32_t>>
      level_codes_;                          // per feature: value → code
};

}  // namespace gdr

#endif  // GDR_ML_EXAMPLE_H_
