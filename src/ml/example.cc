#include "ml/example.h"

#include <cmath>

namespace gdr {

Status TrainingSet::Add(Example example) {
  if (example.features.size() != schema_.num_features()) {
    return Status::InvalidArgument(
        "example arity " + std::to_string(example.features.size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_features()));
  }
  if (example.label < 0 || example.label >= num_classes_) {
    return Status::InvalidArgument("label out of range: " +
                                   std::to_string(example.label));
  }
  for (std::size_t f = 0; f < example.features.size(); ++f) {
    if (!std::isfinite(example.features[f])) {
      return Status::InvalidArgument("feature " + std::to_string(f) +
                                     " is not finite");
    }
  }
  for (std::size_t f = 0; f < example.features.size(); ++f) {
    const double value = example.features[f];
    const auto [it, inserted] = level_codes_[f].try_emplace(
        value, static_cast<std::uint32_t>(levels_[f].size()));
    if (inserted) levels_[f].push_back(value);
    codes_.push_back(it->second);
  }
  examples_.push_back(std::move(example));
  return Status::OK();
}

std::vector<std::size_t> TrainingSet::ClassCounts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (const Example& e : examples_) {
    counts[static_cast<std::size_t>(e.label)]++;
  }
  return counts;
}

}  // namespace gdr
