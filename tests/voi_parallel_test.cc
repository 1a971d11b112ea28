#include <gtest/gtest.h>

#include <vector>

#include "core/voi.h"
#include "sim/experiment.h"
#include "testing/voi_oracle.h"
#include "util/thread_pool.h"
#include "workload/registry.h"

namespace gdr {
namespace {

using voi_testing::BruteForceBenefit;
using voi_testing::Probability;
using voi_testing::RandomVoiInstance;

class VoiParallelTest : public ::testing::TestWithParam<int> {};

// Parallel scores and the chosen top group are bit-identical to the
// serial path at 1, 2, 4, and 8 threads (serial keeps one batch, each pool
// slot keeps its own), and the serial scores equal the brute-force
// oracle's.
TEST_P(VoiParallelTest, ParallelRankingBitIdenticalToSerial) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));

  VoiRanker serial(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking reference =
      serial.Rank(inst.groups, Probability);
  ASSERT_EQ(reference.scores.size(), inst.groups.size());

  // Per-group scores accumulated in the same update order from
  // brute-force benefits.
  for (std::size_t i = 0; i < inst.groups.size(); ++i) {
    double expected = 0.0;
    for (const Update& update : inst.groups[i].updates) {
      expected += Probability(update) *
                  BruteForceBenefit(inst.table, inst.rules, inst.weights,
                                    update);
    }
    EXPECT_EQ(reference.scores[i], expected) << "group " << i;
  }

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    VoiRanker parallel(inst.index.get(), &inst.weights, &pool);
    const VoiRanker::Ranking ranking =
        parallel.Rank(inst.groups, Probability);
    // Exact double equality: same operations in the same order per group.
    EXPECT_EQ(ranking.scores, reference.scores) << threads << " threads";
    EXPECT_EQ(ranking.order, reference.order) << threads << " threads";
    ASSERT_FALSE(ranking.order.empty());
    EXPECT_EQ(ranking.order.front(), reference.order.front());
  }
}

// Scoring through the ranker leaves the shared index and table untouched.
TEST_P(VoiParallelTest, RankingNeverMutatesSharedState) {
  RandomVoiInstance inst(static_cast<std::uint64_t>(GetParam()));
  const Table before = inst.table;
  const std::int64_t vio_before = inst.index->TotalViolations();
  const std::uint64_t version_before = inst.index->version();

  ThreadPool pool(4);
  VoiRanker ranker(inst.index.get(), &inst.weights, &pool);
  ranker.Rank(inst.groups, Probability);

  EXPECT_EQ(inst.index->TotalViolations(), vio_before);
  EXPECT_EQ(inst.index->version(), version_before);
  EXPECT_EQ(*inst.table.CountDifferingCells(before), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoiParallelTest, ::testing::Range(1, 7));

// Determinism: a full Experiment run with a fixed seed yields identical
// stats and repair precision/recall regardless of num_threads.
TEST(VoiParallelDeterminismTest, ExperimentIdenticalAcrossThreadCounts) {
  const Dataset dataset = *WorkloadRegistry::Global().Resolve("dataset1:records=600,seed=21");

  auto run = [&dataset](std::size_t num_threads) {
    ExperimentConfig config;
    config.strategy = Strategy::kGdr;
    config.feedback_budget = 60;
    config.seed = 9;
    config.sample_every = 10;
    config.num_threads = num_threads;
    auto result = RunStrategyExperiment(dataset, config);
    EXPECT_TRUE(result.ok());
    return *result;
  };

  const ExperimentResult reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const ExperimentResult result = run(threads);
    const GdrStats& a = reference.stats;
    const GdrStats& b = result.stats;
    EXPECT_EQ(a.initial_dirty, b.initial_dirty);
    EXPECT_EQ(a.user_feedback, b.user_feedback);
    EXPECT_EQ(a.user_confirms, b.user_confirms);
    EXPECT_EQ(a.user_rejects, b.user_rejects);
    EXPECT_EQ(a.user_retains, b.user_retains);
    EXPECT_EQ(a.user_suggested_values, b.user_suggested_values);
    EXPECT_EQ(a.learner_decisions, b.learner_decisions);
    EXPECT_EQ(a.learner_confirms, b.learner_confirms);
    EXPECT_EQ(a.forced_repairs, b.forced_repairs);
    EXPECT_EQ(a.outer_iterations, b.outer_iterations);

    EXPECT_EQ(reference.final_loss, result.final_loss);
    EXPECT_EQ(reference.remaining_violations, result.remaining_violations);
    EXPECT_EQ(reference.accuracy.updated_cells, result.accuracy.updated_cells);
    EXPECT_EQ(reference.accuracy.correctly_updated_cells,
              result.accuracy.correctly_updated_cells);
    EXPECT_EQ(reference.accuracy.initially_incorrect_cells,
              result.accuracy.initially_incorrect_cells);
    EXPECT_EQ(reference.accuracy.Precision(), result.accuracy.Precision());
    EXPECT_EQ(reference.accuracy.Recall(), result.accuracy.Recall());

    ASSERT_EQ(reference.curve.size(), result.curve.size());
    for (std::size_t i = 0; i < reference.curve.size(); ++i) {
      EXPECT_EQ(reference.curve[i].feedback, result.curve[i].feedback);
      EXPECT_EQ(reference.curve[i].improvement_pct,
                result.curve[i].improvement_pct);
      EXPECT_EQ(reference.curve[i].loss, result.curve[i].loss);
    }
  }
}

}  // namespace
}  // namespace gdr
