// Test-only committee oracles: what a forest's vote, and the learner bank's
// p̃ and uncertainty, must be, computed without the production inference
// path.
//
// Vote fractions come from walking the committee one tree at a time per
// row through DecisionTree::Predict and counting votes per class — no
// feature matrix, no row blocking, no RandomForest::VoteFractionsBatch.
// The majority class and the vote entropy are derived from those
// fractions. The bank oracles encode through LearnerBank::Encode and read
// the attribute's committee through LearnerBank::model, never through
// LearnerBank::Votes. Counting k votes and dividing once gives the same
// doubles as adding 1.0 k times and dividing once, so the production path
// must match these bit for bit.
#ifndef GDR_TESTS_TESTING_FOREST_ORACLE_H_
#define GDR_TESTS_TESTING_FOREST_ORACLE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/learner_bank.h"
#include "ml/random_forest.h"
#include "repair/update.h"

namespace gdr::forest_testing {

/// Per-class fraction of `forest`'s committee votes for one example
/// (num_classes entries; all zero for an untrained forest).
inline std::vector<double> OracleVoteFractions(
    const RandomForest& forest, const std::vector<double>& features) {
  const std::size_t classes = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::size_t> counts(classes, 0);
  for (int t = 0; t < forest.num_trees(); ++t) {
    ++counts[static_cast<std::size_t>(
        forest.tree(static_cast<std::size_t>(t)).Predict(features))];
  }
  std::vector<double> fractions(classes, 0.0);
  if (forest.num_trees() == 0) return fractions;
  for (std::size_t c = 0; c < classes; ++c) {
    fractions[c] = static_cast<double>(counts[c]) /
                   static_cast<double>(forest.num_trees());
  }
  return fractions;
}

/// The class with the most votes; the first such class on a tie.
inline int OracleMajorityClass(const std::vector<double>& fractions) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < fractions.size(); ++c) {
    if (fractions[c] > fractions[best]) best = c;
  }
  return static_cast<int>(best);
}

/// Σ −f·log f / log #classes over the non-zero fractions, in class order;
/// 0 for fewer than two classes.
inline double OracleVoteEntropy(const std::vector<double>& fractions) {
  if (fractions.size() < 2) return 0.0;
  const double log_base = std::log(static_cast<double>(fractions.size()));
  double h = 0.0;
  for (double f : fractions) {
    if (f > 0.0) h -= f * std::log(f) / log_base;
  }
  return h;
}

/// The committee vote of the update's attribute model on its encoding.
inline std::vector<double> OracleBankVotes(const LearnerBank& bank,
                                           const Update& update) {
  return OracleVoteFractions(bank.model(update.attr), bank.Encode(update));
}

/// p̃: the confirm-vote fraction once trained, the repair score before.
inline double OracleConfirmProbability(const LearnerBank& bank,
                                       const Update& update) {
  if (!bank.IsTrained(update.attr)) return update.score;
  return OracleBankVotes(bank, update)[static_cast<std::size_t>(
      Feedback::kConfirm)];
}

/// Vote entropy once trained, 1.0 (maximally uncertain) before.
inline double OracleUncertainty(const LearnerBank& bank,
                                const Update& update) {
  if (!bank.IsTrained(update.attr)) return 1.0;
  return OracleVoteEntropy(OracleBankVotes(bank, update));
}

/// The committee's predicted feedback. Requires a trained attribute.
inline Feedback OraclePrediction(const LearnerBank& bank,
                                 const Update& update) {
  return static_cast<Feedback>(
      OracleMajorityClass(OracleBankVotes(bank, update)));
}

}  // namespace gdr::forest_testing

#endif  // GDR_TESTS_TESTING_FOREST_ORACLE_H_
