// Group-batched VOI scoring: the closed-form HypotheticalBatch probes
// must agree bit for bit with the brute-force oracle (copy the table,
// write the cell, rebuild the index, recount) under every staging
// pattern, and p̃ must come from the installed batch function.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/voi.h"
#include "testing/voi_oracle.h"

namespace gdr {
namespace {

using voi_testing::BruteForceBenefit;
using voi_testing::Probability;
using voi_testing::RandomVoiInstance;

class VoiBatchedTest : public ::testing::TestWithParam<int> {};

// E[g(c)] by the oracle: p̃ times the brute-force benefit, summed in
// update order.
double BruteForceGroupScore(const RandomVoiInstance& inst,
                            const UpdateGroup& group) {
  double score = 0.0;
  for (const Update& update : group.updates) {
    score += Probability(update) *
             BruteForceBenefit(inst.table, inst.rules, inst.weights, update);
  }
  return score;
}

// The batched closed-form benefit equals the brute-force oracle for every
// pooled update, with the batch staged once per group (the hot-path access
// pattern), and equals the convenience overload that stages its own batch.
TEST_P(VoiBatchedTest, BatchedBenefitMatchesBruteForce) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  VoiRanker ranker(inst.index.get(), &inst.weights);
  HypotheticalBatch batch(inst.index.get());
  for (const UpdateGroup& group : inst.groups) {
    for (const Update& update : group.updates) {
      const double batched = ranker.UpdateBenefit(update, &batch);
      EXPECT_EQ(batched, ranker.UpdateBenefit(update));
      EXPECT_EQ(batched, BruteForceBenefit(inst.table, inst.rules,
                                           inst.weights, update));
    }
  }
}

// Same under adversarial staging: updates interleaved round-robin across
// groups so every probe forces a restage onto a new (attr, value) context.
// Restaging must never leak state between contexts.
TEST_P(VoiBatchedTest, InterleavedRestagingMatchesBruteForce) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  VoiRanker ranker(inst.index.get(), &inst.weights);
  HypotheticalBatch batch(inst.index.get());
  std::size_t largest = 0;
  for (const UpdateGroup& group : inst.groups) {
    largest = std::max(largest, group.updates.size());
  }
  for (std::size_t k = 0; k < largest; ++k) {
    for (const UpdateGroup& group : inst.groups) {
      if (k >= group.updates.size()) continue;
      const Update& update = group.updates[k];
      EXPECT_EQ(ranker.UpdateBenefit(update, &batch),
                BruteForceBenefit(inst.table, inst.rules, inst.weights,
                                  update));
    }
  }
}

// Batched scoring leaves the shared index and table untouched; probes are
// pure reads against the pinned base version.
TEST_P(VoiBatchedTest, BatchedScoringNeverMutatesSharedState) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  const Table before = inst.table;
  const std::int64_t vio_before = inst.index->TotalViolations();
  const std::uint64_t version_before = inst.index->version();

  VoiRanker ranker(inst.index.get(), &inst.weights);
  ranker.Rank(inst.groups, Probability);

  EXPECT_EQ(inst.index->TotalViolations(), vio_before);
  EXPECT_EQ(inst.index->version(), version_before);
  EXPECT_EQ(*inst.table.CountDifferingCells(before), 0u);
}

// ScoreGroup (the live-ranking merge's rescoring path) accumulates the
// same terms as the brute-force oracle in update order.
TEST_P(VoiBatchedTest, ScoreGroupMatchesBruteForce) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  VoiRanker ranker(inst.index.get(), &inst.weights);
  for (const UpdateGroup& group : inst.groups) {
    EXPECT_EQ(ranker.ScoreGroup(group, Probability),
              BruteForceGroupScore(inst, group));
  }
}

// Rank scores every group as the brute-force benefits summed in update
// order, and orders groups by descending score with ties broken by
// ascending group index.
TEST_P(VoiBatchedTest, RankMatchesBruteForceAndOrdersByScore) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  VoiRanker ranker(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking ranking = ranker.Rank(inst.groups, Probability);
  ASSERT_EQ(ranking.scores.size(), inst.groups.size());
  ASSERT_EQ(ranking.order.size(), inst.groups.size());

  for (std::size_t i = 0; i < inst.groups.size(); ++i) {
    EXPECT_EQ(ranking.scores[i], BruteForceGroupScore(inst, inst.groups[i]))
        << "group " << i;
  }

  std::vector<bool> seen(inst.groups.size(), false);
  for (const std::size_t i : ranking.order) {
    ASSERT_LT(i, inst.groups.size());
    EXPECT_FALSE(seen[i]) << "group " << i << " ranked twice";
    seen[i] = true;
  }
  for (std::size_t k = 1; k < ranking.order.size(); ++k) {
    const std::size_t a = ranking.order[k - 1];
    const std::size_t b = ranking.order[k];
    const double score_a = ranking.scores[a];
    const double score_b = ranking.scores[b];
    EXPECT_TRUE(score_a > score_b || (score_a == score_b && a < b))
        << "position " << k << ": group " << a << " (" << score_a
        << ") before group " << b << " (" << score_b << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoiBatchedTest, ::testing::Range(1, 7));

// Once a batch p̃ function is installed it supplies every probability; the
// scalar fn passed to Rank/ScoreGroup is never consulted.
TEST(VoiBatchedProbabilityTest, InstalledBatchFunctionReplacesScalarFn) {
  RandomVoiInstance inst(3);
  VoiRanker ranker(inst.index.get(), &inst.weights);
  ranker.set_batch_probability_fn(
      [](std::span<const Update> updates, std::vector<double>* out) {
        out->clear();
        for (const Update& u : updates) out->push_back(Probability(u));
      });
  const auto never_called = [](const Update&) {
    ADD_FAILURE() << "scalar p̃ consulted despite a batch function";
    return 0.0;
  };
  const VoiRanker::Ranking batched = ranker.Rank(inst.groups, never_called);
  const VoiRanker plain(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking scalar = plain.Rank(inst.groups, Probability);
  EXPECT_EQ(batched.scores, scalar.scores);
  EXPECT_EQ(batched.order, scalar.order);
  for (std::size_t i = 0; i < inst.groups.size(); ++i) {
    EXPECT_EQ(ranker.ScoreGroup(inst.groups[i], never_called),
              scalar.scores[i]);
  }
}

}  // namespace
}  // namespace gdr
