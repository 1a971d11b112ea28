// Differential suite for incremental VOI re-ranking. Over the seeded
// random walks of tests/testing/index_walk.h, a pool of candidate updates
// (one per cell, churned every step) is grouped with GroupUpdates and
// ranked after every step three ways: by one long-lived VoiRanker, whose
// cache reuses the probes whose reads did not move, by a fresh ranker, and
// by the brute-force oracle of tests/testing/voi_oracle.h. Scores must be
// bitwise equal and the orders identical.
//
// The binary also counts allocations (operator new is replaced below, as
// perfbench/alloc_count.cc does) to pin that a warm re-rank allocates
// nothing per update.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/gdr.h"
#include "core/grouping.h"
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
