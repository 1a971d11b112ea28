// Differential suite for incremental VOI re-ranking. Over the seeded
// random walks of tests/testing/index_walk.h, a pool of candidate updates
// (one per cell, churned every step) is grouped with GroupUpdates and
// ranked after every step three ways: by one long-lived VoiRanker, whose
// cache reuses the probes whose reads did not move, by a fresh ranker, and
// by the brute-force oracle of tests/testing/voi_oracle.h. Scores must be
// bitwise equal and the orders identical. A learner walk ranks with a
// trained LearnerBank, whose p̃ the long-lived ranker reuses, and compares
// every p̃ bitwise as well.
//
// The binary also counts allocations (operator new is replaced below, as
// perfbench/alloc_count.cc does) to pin that a warm re-rank allocates
// nothing per update.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/gdr.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "core/voi.h"
#include "repair/update_pool.h"
#include "testing/index_walk.h"
#include "testing/voi_oracle.h"
#include "util/rng.h"
#include "workload/registry.h"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gdr {
namespace {

using voi_testing::BruteForceBenefit;
using voi_testing::Probability;
using walk_testing::Walk;

// The oracle's scores: p̃ times the brute-force benefit, in update order.
std::vector<double> OracleScores(const ViolationIndex& index,
                                 const std::vector<double>& weights,
                                 const std::vector<UpdateGroup>& groups) {
  std::vector<double> scores;
  for (const UpdateGroup& group : groups) {
    double score = 0.0;
    for (const Update& update : group.updates) {
      score += Probability(update) * BruteForceBenefit(index.table(),
                                                       index.rules(), weights,
                                                       update);
    }
    scores.push_back(score);
  }
  return scores;
}

void ExpectSameScores(const std::vector<double>& expected,
                      const std::vector<double>& actual, const char* who) {
  ASSERT_EQ(expected.size(), actual.size()) << who;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << who << " group " << i << ": " << expected[i] << " vs "
        << actual[i];
  }
}

struct Counts {
  std::uint64_t scored = 0;
  std::uint64_t probed = 0;
};

// Ranks after every step of one walk; `counts` gets the long-lived
// ranker's updates scored and probed.
void RunWalk(Walk walk, std::uint64_t seed, int steps, std::size_t pool_size,
             Counts* counts) {
  ViolationIndex index(&walk.table, &walk.rules());
  Rng rng(seed);
  std::vector<double> weights(walk.rules().size());
  const auto reweigh = [&weights, &rng] {
    for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();
  };
  reweigh();
  const VoiRanker live(&index, &weights);
  UpdatePool pool;
  for (int step = 0; step <= steps; ++step) {
    SCOPED_TRACE(walk.name + " seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    if (step > 0) {
      const std::size_t rows = walk.table.num_rows();
      walk_testing::Step(walk, &index, &rng);
      if (::testing::Test::HasFatalFailure()) return;
      // Appends move |D(φ)|, and with them the Eq. 3 weights.
      if (walk.table.num_rows() != rows) reweigh();
    }
    // Churn: drop a few pooled cells, suggest for new ones (or new values
    // for pooled ones) until the pool is back to size.
    for (const Update& update : pool.All()) {
      if (rng.NextBounded(6) == 0) pool.Remove(update.cell());
    }
    while (pool.size() < pool_size) {
      pool.Upsert(walk_testing::RandomHypothetical(walk, walk.table, &rng));
    }
    const std::vector<UpdateGroup> groups = GroupUpdates(pool);
    const VoiRanker::Ranking reused = live.Rank(groups, Probability);
    const VoiRanker::Ranking fresh =
        VoiRanker(&index, &weights).Rank(groups, Probability);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameScores(OracleScores(index, weights, groups), fresh.scores,
                         "fresh ranker vs oracle"));
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameScores(fresh.scores, reused.scores, "long-lived ranker"));
    ASSERT_EQ(fresh.order, reused.order);
  }
  const PerfCounters& perf = live.perf_counters();
  counts->scored += perf.Count(PerfPhase::kVoiProbe);
  counts->probed += perf.Count(PerfPhase::kVoiReprobe);
}

// The cache must have been used, or the comparison shows nothing.
void ExpectReuse(const Counts& counts) {
  EXPECT_GT(counts.probed, 0u);
  EXPECT_LT(counts.probed * 2, counts.scored);
}

TEST(VoiRerankDifferentialTest, HandBuiltRandomWalks) {
  Counts counts;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    ASSERT_NO_FATAL_FAILURE(
        RunWalk(walk_testing::HandWalk(seed), seed, 60, 40, &counts));
  }
  ExpectReuse(counts);
}

TEST(VoiRerankDifferentialTest, Dataset1RandomWalks) {
  Counts counts;
  for (std::uint64_t seed : {7u, 8u}) {
    ASSERT_NO_FATAL_FAILURE(
        RunWalk(walk_testing::Dataset1Walk(), seed, 30, 40, &counts));
  }
  ExpectReuse(counts);
}

TEST(VoiRerankDifferentialTest, Dataset2RandomWalks) {
  Counts counts;
  for (std::uint64_t seed : {9u, 10u}) {
    ASSERT_NO_FATAL_FAILURE(
        RunWalk(walk_testing::Dataset2Walk(), seed, 25, 40, &counts));
  }
  ExpectReuse(counts);
}

// p̃ reuse with a real learner: over the hand-built walk, a long-lived
// ranker ranks with a LearnerBank after every step and is checked against
// a fresh ranker, scores and every p̃ bitwise. Labels follow the features
// the reuse checks guard (the violation counts before and after, the
// value supports), so the forests split on them. Besides the walk's own
// steps, each step may label and retrain, write the attribute of a pooled
// update elsewhere (only value counts move for it), write the RHS of a
// group mate of a pooled update's row under a variable rule not
// mentioning its attribute (only that group moves), or re-score a pooled
// update.
struct LearnerCounts {
  std::uint64_t scored = 0;
  std::uint64_t reused = 0;
};

Feedback LabelFor(const LearnerBank& bank, const Table& table,
                  const Update& update) {
  const std::vector<double> features = bank.Encode(update);
  const std::size_t width = table.num_attrs();
  if (features[width + 6] < features[width + 5]) return Feedback::kConfirm;
  if (features[width + 3] >= features[width + 4]) return Feedback::kRetain;
  return Feedback::kReject;
}

void RunLearnerWalk(std::uint64_t seed, int steps, LearnerCounts* counts) {
  Walk walk = walk_testing::HandWalk(seed);
  ViolationIndex index(&walk.table, &walk.rules());
  Rng rng(seed);
  std::vector<double> weights(walk.rules().size());
  for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();
  LearnerBankOptions options;
  options.min_training_examples = 12;
  LearnerBank bank(&walk.table, &index, options);
  const auto label = [&](int labels) {
    for (int i = 0; i < labels; ++i) {
      const Update update =
          walk_testing::RandomHypothetical(walk, walk.table, &rng);
      ASSERT_TRUE(
          bank.AddFeedback(update, LabelFor(bank, walk.table, update)).ok());
      ASSERT_TRUE(bank.Retrain(update.attr).ok());
    }
  };
  ASSERT_NO_FATAL_FAILURE(label(100));
  const VoiRanker live(&index, &weights);
  UpdatePool pool;
  const auto pooled = [&pool, &rng] {
    const std::vector<Update> all = pool.All();
    return all[rng.NextBounded(all.size())];
  };
  for (int step = 0; step <= steps; ++step) {
    SCOPED_TRACE("learner seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    if (step > 0) {
      switch (rng.NextBounded(5)) {
        case 0:
          walk_testing::Step(walk, &index, &rng);
          if (::testing::Test::HasFatalFailure()) return;
          break;
        case 1:
          ASSERT_NO_FATAL_FAILURE(label(2));
          break;
        case 2: {
          const Update update = pooled();
          const RowId other = static_cast<RowId>(
              rng.NextBounded(walk.table.num_rows()));
          if (other != update.row) {
            index.ApplyCellChange(other, update.attr, update.value);
          }
          break;
        }
        case 3: {
          const Update update = pooled();
          const RuleSet& rules = walk.rules();
          std::vector<RuleId> others;  // with a group mate for the row
          for (std::size_t r = 0; r < rules.size(); ++r) {
            const RuleId rule = static_cast<RuleId>(r);
            if (rules.rule(rule).IsVariable() &&
                index.AffectedSlot(update.attr, rule) < 0 &&
                index.GroupMembers(update.row, rule).size() > 1) {
              others.push_back(rule);
            }
          }
          if (others.empty()) break;
          const RuleId rule = others[rng.NextBounded(others.size())];
          const std::vector<RowId> mates = index.GroupMembers(update.row, rule);
          RowId mate = mates[rng.NextBounded(mates.size())];
          if (mate == update.row) mate = mates[mate == mates[0] ? 1 : 0];
          const AttrId rhs = rules.rule(rule).rhs().attr;
          index.ApplyCellChange(mate, rhs,
                                std::string_view(walk.value(rhs, &rng)));
          break;
        }
        case 4: {
          Update update = pooled();
          update.score = rng.NextDouble();
          pool.Upsert(update);
          break;
        }
      }
    }
    for (const Update& update : pool.All()) {
      if (rng.NextBounded(8) == 0) pool.Remove(update.cell());
    }
    while (pool.size() < 40) {
      pool.Upsert(walk_testing::RandomHypothetical(walk, walk.table, &rng));
    }
    const std::vector<UpdateGroup> groups = GroupUpdates(pool);
    const VoiRanker::Ranking reused = live.Rank(groups, bank);
    const VoiRanker fresh_ranker(&index, &weights);
    const VoiRanker::Ranking fresh = fresh_ranker.Rank(groups, bank);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameScores(fresh.scores, reused.scores, "long-lived ranker"));
    ASSERT_EQ(fresh.order, reused.order);
    const std::span<const double> expected =
        fresh_ranker.confirm_probabilities();
    const std::span<const double> actual = live.confirm_probabilities();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[k]),
                std::bit_cast<std::uint64_t>(actual[k]))
          << "p̃ of update " << k << ": " << expected[k] << " vs "
          << actual[k];
    }
  }
  const PerfCounters& perf = live.perf_counters();
  counts->scored += perf.Count(PerfPhase::kVoiProbe);
  counts->reused += perf.Count(PerfPhase::kLearnerReuse);
}

TEST(VoiRerankDifferentialTest, LearnerRandomWalksReuseExactP) {
  LearnerCounts counts;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    ASSERT_NO_FATAL_FAILURE(RunLearnerWalk(seed, 80, &counts));
  }
  // Reuse happened, and so did re-evaluation.
  EXPECT_GT(counts.reused, 0u);
  EXPECT_LT(counts.reused, counts.scored);
}

// Updates out of GroupUpdates' order, or not carrying their group's
// (attr, value), are scored like any other; they are just not reused.
TEST(VoiRerankDifferentialTest, UnorderedGroupsScoreAlike) {
  voi_testing::RandomVoiInstance inst(17);
  const VoiRanker live(inst.index.get(), &inst.weights);
  std::vector<UpdateGroup> groups = inst.groups;
  groups.front().updates.push_back(inst.RandomUpdate());
  for (int pass = 0; pass < 3; ++pass) {
    const VoiRanker::Ranking fresh =
        VoiRanker(inst.index.get(), &inst.weights).Rank(groups, Probability);
    const VoiRanker::Ranking reused = live.Rank(groups, Probability);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameScores(fresh.scores, reused.scores, "long-lived ranker"));
    ASSERT_EQ(fresh.order, reused.order);
    inst.index->ApplyCellChange(0, 3, inst.table.id_at(1, 3));
  }
}

// Allocations made by the second of two Rank calls over the engine's
// initial pool, the index unchanged in between.
std::uint64_t WarmRerankAllocations(const std::string& spec) {
  Dataset dataset = *WorkloadRegistry::Global().Resolve(spec);
  GdrEngine engine(&dataset.dirty, &dataset.rules);
  EXPECT_TRUE(engine.Initialize().ok());
  const std::vector<UpdateGroup> groups = GroupUpdates(engine.pool());
  const VoiRanker ranker(&engine.index(), &engine.rule_weights());
  const auto score = [](const Update& update) { return update.score; };
  ranker.Rank(groups, score);
  const std::uint64_t probed =
      ranker.perf_counters().Count(PerfPhase::kVoiReprobe);
  const std::uint64_t before = t_allocations;
  const VoiRanker::Ranking ranking = ranker.Rank(groups, score);
  const std::uint64_t allocations = t_allocations - before;
  // Everything was reused.
  EXPECT_EQ(ranker.perf_counters().Count(PerfPhase::kVoiReprobe), probed);
  EXPECT_EQ(ranking.order.size(), groups.size());
  return allocations;
}

TEST(VoiRerankDifferentialTest, WarmRerankAllocatesNothingPerUpdate) {
  const std::uint64_t small = WarmRerankAllocations("dataset1:records=1000");
  const std::uint64_t large = WarmRerankAllocations("dataset1:records=4000");
  EXPECT_EQ(small, large);
  EXPECT_LT(small, 16u);
}

}  // namespace
}  // namespace gdr
