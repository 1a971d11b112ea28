// Batched learner inference over a real candidate pool at paper scale:
// Dataset 1 at 20000 records, a default LearnerBank trained from oracle
// feedback on every pooled update. ConfirmProbabilities over whole groups
// (one feature matrix and one tree-at-a-time walk per group) must equal
// the per-update calls bit for bit across the pool, and may not be slower
// than them. The timing case is registered RUN_SERIAL with the `perf`
// label so sanitizer jobs can leave it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/gdr.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "sim/oracle.h"
#include "util/stopwatch.h"
#include "workload/registry.h"

namespace gdr {
namespace {

// The engine's round-one pool with a bank trained on all of it: the
// simulated user answers every pooled update from ground truth, then every
// attribute retrains. Built once and shared by both cases.
struct TrainedPool {
  Dataset dataset;
  Table working;
  GdrEngine engine;
  std::unique_ptr<LearnerBank> bank;
  std::vector<UpdateGroup> groups;
  std::size_t updates = 0;
  std::size_t trained_attrs = 0;

  TrainedPool()
      : dataset(*WorkloadRegistry::Global().Resolve(
            "dataset1:records=20000,seed=42")),
        working(dataset.dirty),
        engine(&working, &dataset.rules) {
    EXPECT_TRUE(engine.Initialize().ok());
    groups = GroupUpdates(engine.pool());
    bank = std::make_unique<LearnerBank>(&working, &engine.index());
    UserOracle oracle(&dataset.clean);
    for (const UpdateGroup& group : groups) {
      updates += group.size();
      for (const Update& update : group.updates) {
        EXPECT_TRUE(
            bank->AddFeedback(update, oracle.GetFeedback(working, update))
                .ok());
      }
    }
    for (std::size_t a = 0; a < working.num_attrs(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      EXPECT_TRUE(bank->Retrain(attr).ok());
      if (bank->IsTrained(attr)) ++trained_attrs;
    }
  }
};

const TrainedPool& Pool() {
  static const TrainedPool pool;
  return pool;
}

// p̃ over the whole pool, one ConfirmProbabilities call per one-update span.
std::vector<double> PerUpdateProbabilities(const TrainedPool& pool) {
  std::vector<double> probs;
  probs.reserve(pool.updates);
  std::vector<double> out;
  for (const UpdateGroup& group : pool.groups) {
    for (const Update& update : group.updates) {
      pool.bank->ConfirmProbabilities(std::span<const Update>(&update, 1),
                                      &out);
      probs.push_back(out[0]);
    }
  }
  return probs;
}

// p̃ over the whole pool, one ConfirmProbabilities call per group.
std::vector<double> PerGroupProbabilities(const TrainedPool& pool) {
  std::vector<double> probs;
  probs.reserve(pool.updates);
  std::vector<double> out;
  for (const UpdateGroup& group : pool.groups) {
    pool.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &out);
    probs.insert(probs.end(), out.begin(), out.end());
  }
  return probs;
}

TEST(LearnerPoolGateTest, PerGroupProbabilitiesMatchPerUpdateBitForBit) {
  const TrainedPool& pool = Pool();
  ASSERT_GT(pool.updates, 0u);
  ASSERT_GT(pool.trained_attrs, 0u);
  const std::vector<double> per_update = PerUpdateProbabilities(pool);
  const std::vector<double> per_group = PerGroupProbabilities(pool);
  ASSERT_EQ(per_update.size(), pool.updates);
  ASSERT_EQ(per_group.size(), pool.updates);
  // operator== on doubles: bit-identical (no NaN is ever produced here).
  const auto mismatch =
      std::mismatch(per_update.begin(), per_update.end(), per_group.begin());
  EXPECT_TRUE(mismatch.first == per_update.end())
      << "update " << (mismatch.first - per_update.begin()) << ": per-update "
      << *mismatch.first << " vs per-group " << *mismatch.second;
}

TEST(LearnerPoolGateTest, PerGroupProbabilitiesAreNotSlowerThanPerUpdate) {
  const TrainedPool& pool = Pool();
  ASSERT_GT(pool.trained_attrs, 0u);
  constexpr int kRepeats = 3;
  double best_per_update = -1.0;
  double best_per_group = -1.0;
  // Interleaved within each repeat: same committees, same cache state.
  for (int r = 0; r < kRepeats; ++r) {
    Stopwatch update_watch;
    PerUpdateProbabilities(pool);
    const double per_update = update_watch.ElapsedSeconds();
    Stopwatch group_watch;
    PerGroupProbabilities(pool);
    const double per_group = group_watch.ElapsedSeconds();
    if (r == 0 || per_update < best_per_update) best_per_update = per_update;
    if (r == 0 || per_group < best_per_group) best_per_group = per_group;
  }
  EXPECT_LE(best_per_group, best_per_update)
      << "per-group p̃ took " << best_per_group << "s, per-update "
      << best_per_update << "s over " << pool.updates << " updates";
}

}  // namespace
}  // namespace gdr
