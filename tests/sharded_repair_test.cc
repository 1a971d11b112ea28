// The sharded data plane's differential suite: merged results and their
// fingerprints must be a pure function of the shard partition — identical
// across thread counts (1/2/4/8), across forward/reverse shard execution,
// and, at shard_count 1, identical to the plain unsharded experiment.
// Plus merge unit behavior and append routing into per-shard sessions.
#include "plane/sharded_repair.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "util/thread_pool.h"
#include "workload/registry.h"

namespace gdr::plane {
namespace {

Dataset SmallDataset() {
  return *WorkloadRegistry::Global().Resolve("dataset1:records=300,seed=21");
}

ShardedRepairConfig BaseConfig(std::size_t shard_count) {
  ShardedRepairConfig config;
  config.shard_count = shard_count;
  config.experiment.strategy = Strategy::kGdrNoLearning;
  config.experiment.seed = 17;
  config.experiment.sample_every = 20;
  return config;
}

TEST(ShardedRepairTest, SingleShardMatchesPlainExperiment) {
  const Dataset dataset = SmallDataset();
  const ShardedRepairConfig config = BaseConfig(1);

  auto sharded = RunShardedRepair(dataset, config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->shards.size(), 1u);

  ExperimentConfig plain = config.experiment;
  auto direct = RunStrategyExperiment(dataset, plain);
  ASSERT_TRUE(direct.ok());

  // The single-shard slice is a full copy, so the merged result must be
  // the plain experiment bit for bit.
  EXPECT_EQ(sharded->fingerprint, FingerprintExperimentResult(*direct));
  EXPECT_TRUE(sharded->merge_deterministic);
}

TEST(ShardedRepairTest, FingerprintInvariantAcrossThreadCountsAndOrder) {
  const Dataset dataset = SmallDataset();
  const std::size_t kShards = 4;

  // Baseline: serial, forward order.
  auto baseline = RunShardedRepair(dataset, BaseConfig(kShards));
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline->merge_deterministic);
  ASSERT_EQ(baseline->shards.size(), kShards);

  // Serial, reverse order.
  {
    ShardedRepairConfig config = BaseConfig(kShards);
    config.reverse_execution = true;
    auto reversed = RunShardedRepair(dataset, config);
    ASSERT_TRUE(reversed.ok());
    EXPECT_EQ(reversed->fingerprint, baseline->fingerprint);
  }

  // Pooled at 2/4/8 workers, forward and reverse.
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (const bool reverse : {false, true}) {
      ShardedRepairConfig config = BaseConfig(kShards);
      config.pool = &pool;
      config.reverse_execution = reverse;
      auto result = RunShardedRepair(dataset, config);
      ASSERT_TRUE(result.ok()) << threads << (reverse ? " reverse" : "");
      EXPECT_EQ(result->fingerprint, baseline->fingerprint)
          << threads << " threads, reverse=" << reverse;
      EXPECT_TRUE(result->merge_deterministic);
    }
  }
}

TEST(ShardedRepairTest, ShardCountBeyondRowCountRunsEmptyShards) {
  Dataset dataset =
      *WorkloadRegistry::Global().Resolve("dataset1:records=40,seed=3");
  ShardedRepairConfig config = BaseConfig(dataset.dirty.num_rows() + 5);
  auto result = RunShardedRepair(dataset, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->shards.size(), dataset.dirty.num_rows() + 5);
  EXPECT_TRUE(result->merge_deterministic);
  // The surplus shards are empty experiments contributing nothing.
  for (std::size_t s = dataset.dirty.num_rows(); s < result->shards.size();
       ++s) {
    EXPECT_EQ(result->shards[s].stats.user_feedback, 0u);
    EXPECT_EQ(result->shards[s].remaining_violations, 0);
  }
}

TEST(MergeShardResultsTest, EmptyAndSingleInputs) {
  EXPECT_EQ(MergeShardResults({}).curve.size(), 0u);

  ExperimentResult one;
  one.strategy_name = "GDR";
  one.initial_loss = 2.0;
  one.final_loss = 0.5;
  one.curve = {{0, 0.0, 2.0}, {10, 75.0, 0.5}};
  const ExperimentResult merged = MergeShardResults({one});
  EXPECT_EQ(FingerprintExperimentResult(merged),
            FingerprintExperimentResult(one));
}

TEST(MergeShardResultsTest, SumsCountersAndReplaysCurves) {
  ExperimentResult a;
  a.strategy_name = "GDR";
  a.stats.user_feedback = 10;
  a.initial_loss = 1.0;
  a.final_loss = 0.0;
  a.remaining_violations = 1;
  a.wall_seconds = 2.0;
  a.curve = {{0, 0.0, 1.0}, {4, 50.0, 0.5}, {10, 100.0, 0.0}};

  ExperimentResult b;
  b.strategy_name = "GDR";
  b.stats.user_feedback = 6;
  b.initial_loss = 3.0;
  b.final_loss = 1.0;
  b.remaining_violations = 2;
  b.wall_seconds = 5.0;
  b.curve = {{0, 0.0, 3.0}, {6, 200.0 / 3.0, 1.0}};

  const ExperimentResult merged = MergeShardResults({a, b});
  EXPECT_EQ(merged.stats.user_feedback, 16u);
  EXPECT_DOUBLE_EQ(merged.initial_loss, 4.0);
  EXPECT_DOUBLE_EQ(merged.final_loss, 1.0);
  EXPECT_EQ(merged.remaining_violations, 3);
  EXPECT_DOUBLE_EQ(merged.wall_seconds, 5.0);  // max, shards overlap
  EXPECT_DOUBLE_EQ(merged.final_improvement_pct, 75.0);

  // Events replay at feedback 4 (a), 6 (b), 10 (a) on top of the summed
  // initial point; totals accumulate per-shard deltas.
  ASSERT_EQ(merged.curve.size(), 4u);
  EXPECT_EQ(merged.curve[0].feedback, 0u);
  EXPECT_DOUBLE_EQ(merged.curve[0].loss, 4.0);
  EXPECT_EQ(merged.curve[1].feedback, 4u);
  EXPECT_DOUBLE_EQ(merged.curve[1].loss, 3.5);
  EXPECT_EQ(merged.curve[2].feedback, 10u);
  EXPECT_DOUBLE_EQ(merged.curve[2].loss, 1.5);
  EXPECT_EQ(merged.curve[3].feedback, 16u);
  EXPECT_DOUBLE_EQ(merged.curve[3].loss, 1.0);
  // Order of the input vector is the only order that matters; the same
  // shards merged twice give the same digest.
  EXPECT_EQ(FingerprintExperimentResult(MergeShardResults({a, b})),
            FingerprintExperimentResult(merged));
}

// Late-arriving rows route by append index to the owning shard's session
// (the PR 6 streaming path, sharded): every routed row is appended to
// exactly one per-shard session and admission totals add up.
TEST(ShardedRepairTest, AppendsRouteIntoOwningShardSessions) {
  const Dataset dataset = SmallDataset();
  const std::size_t kShards = 3;
  auto plan = ShardPlan::Split(dataset.dirty.num_rows(), kShards);
  ASSERT_TRUE(plan.ok());

  struct ShardSession {
    Dataset slice;
    Table working;
    std::unique_ptr<GdrSession> session;

    explicit ShardSession(Dataset s)
        : slice(std::move(s)), working(slice.dirty) {}
  };
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  options.seed = 5;

  std::vector<std::unique_ptr<ShardSession>> sessions;
  for (std::size_t s = 0; s < kShards; ++s) {
    auto slice = MakeShardDataset(dataset, plan->range(s), "shard");
    ASSERT_TRUE(slice.ok());
    sessions.push_back(std::make_unique<ShardSession>(*std::move(slice)));
    ShardSession& shard = *sessions.back();
    shard.session = std::make_unique<GdrSession>(
        &shard.working, &shard.slice.rules, options);
    ASSERT_TRUE(shard.session->Start().ok());
  }

  std::vector<std::vector<std::string>> batch;
  for (int i = 0; i < 7; ++i) {
    batch.push_back(std::vector<std::string>(dataset.dirty.num_attrs(),
                                             "v" + std::to_string(i)));
  }
  const auto routed = plan->RouteAppends(batch);
  ASSERT_EQ(routed.size(), kShards);

  std::size_t appended_total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (routed[s].empty()) continue;
    const std::size_t before = sessions[s]->working.num_rows();
    auto outcome = sessions[s]->session->AppendDirtyRows(routed[s]);
    ASSERT_TRUE(outcome.ok()) << "shard " << s;
    EXPECT_EQ(outcome->rows_appended, routed[s].size());
    EXPECT_EQ(sessions[s]->working.num_rows(), before + routed[s].size());
    appended_total += outcome->rows_appended;
  }
  EXPECT_EQ(appended_total, batch.size());
}

}  // namespace
}  // namespace gdr::plane
