// The incremental-vs-rebuild differential suite pinning streaming
// ingestion: for random row-arrival orders, chunk sizes, and interleaved
// repairs, a ViolationIndex grown through AppendRow/AppendRows must be
// bit-identical — group membership, tallies, violation bitmap, rule
// weights, VOI scores — to an index built from scratch over the final
// table.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "core/quality.h"
#include "core/voi.h"
#include "repair/repair_state.h"
#include "repair/update_generator.h"
#include "repair/update_pool.h"
#include "sim/stream_gen.h"
#include "testing/voi_oracle.h"
#include "util/rng.h"
#include "workload/row_stream.h"

namespace gdr {
namespace {

Schema TestSchema() { return *Schema::Make({"STR", "CT", "STT", "ZIP"}); }

RuleSet TestRules() {
  RuleSet rules(TestSchema());
  EXPECT_TRUE(
      rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
          .ok());
  EXPECT_TRUE(
      rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville").ok());
  EXPECT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
  EXPECT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());
  return rules;
}

std::vector<std::string> RandomRow(Rng* rng) {
  const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd"};
  const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
  const char* states[] = {"IN", "IND"};
  const char* zips[] = {"46825", "46391", "46360", "46802"};
  return {streets[rng->NextBounded(3)], cities[rng->NextBounded(3)],
          states[rng->NextBounded(2)], zips[rng->NextBounded(4)]};
}

// Every observable of the incrementally grown index must match a fresh
// build over a copy of its table (the copy shares value dictionaries, so
// even ValueId-keyed and double-valued comparisons are exact).
void ExpectMatchesRebuild(const ViolationIndex& index, const RuleSet& rules) {
  Table copy = index.table();
  ViolationIndex rebuilt(&copy, &rules);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleId rule = static_cast<RuleId>(i);
    EXPECT_EQ(index.RuleViolations(rule), rebuilt.RuleViolations(rule));
    EXPECT_EQ(index.ViolatingCount(rule), rebuilt.ViolatingCount(rule));
    EXPECT_EQ(index.ContextCount(rule), rebuilt.ContextCount(rule));
    EXPECT_EQ(index.SatisfyingCount(rule), rebuilt.SatisfyingCount(rule));
    EXPECT_EQ(index.GroupStorage(rule).live_groups(),
              rebuilt.GroupStorage(rule).slots)
        << "rule " << i;
  }
  EXPECT_EQ(index.TotalViolations(), rebuilt.TotalViolations());
  EXPECT_EQ(index.DirtyRows(), rebuilt.DirtyRows());
  for (std::size_t r = 0; r < copy.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const RuleId rule = static_cast<RuleId>(i);
      EXPECT_EQ(index.TupleViolation(row, rule),
                rebuilt.TupleViolation(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.GroupTotal(row, rule), rebuilt.GroupTotal(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.GroupMembers(row, rule), rebuilt.GroupMembers(row, rule))
          << "row " << r << " rule " << i;
      EXPECT_EQ(index.ViolationPartners(row, rule),
                rebuilt.ViolationPartners(row, rule))
          << "row " << r << " rule " << i;
    }
  }
  // Rule weights and VOI scores ride on the aggregates; demand bit-equal
  // doubles, not approximate ones.
  const std::vector<double> weights = ContextRuleWeights(index);
  EXPECT_EQ(weights, ContextRuleWeights(rebuilt));

  UpdatePool pool;
  RepairState state;
  Table* mutable_table = &copy;  // generator needs a non-const table
  UpdateGenerator generator(&rebuilt, mutable_table, &state);
  for (RowId row : rebuilt.DirtyRows()) {
    for (std::size_t a = 0; a < copy.num_attrs(); ++a) {
      if (auto update =
              generator.UpdateAttributeTuple(row, static_cast<AttrId>(a))) {
        pool.Upsert(*update);
      }
    }
  }
  const std::vector<UpdateGroup> groups = GroupUpdates(pool);
  const VoiRanker streamed_ranker(&index, &weights);
  const VoiRanker rebuilt_ranker(&rebuilt, &weights);
  const auto confirm = [](const Update& u) { return u.score; };
  const VoiRanker::Ranking streamed_ranking =
      streamed_ranker.Rank(groups, confirm);
  const VoiRanker::Ranking rebuilt_ranking =
      rebuilt_ranker.Rank(groups, confirm);
  EXPECT_EQ(streamed_ranking.scores, rebuilt_ranking.scores);
  EXPECT_EQ(streamed_ranking.order, rebuilt_ranking.order);
}

// The tentpole property: any arrival order, any chunking — same index.
class StreamingDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingDifferentialTest, ChunkedAppendsMatchRebuild) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 2654435761ULL + 17);
  const RuleSet rules = TestRules();

  // One pool of rows, arriving in a seed-dependent order.
  std::vector<std::vector<std::string>> arrivals;
  for (int i = 0; i < 120; ++i) arrivals.push_back(RandomRow(&rng));
  rng.Shuffle(arrivals);

  // A seed-dependent prefix is already present when the index is built;
  // the rest streams in through AppendRow / AppendRows.
  Table table(rules.schema());
  const std::size_t preloaded = rng.NextBounded(arrivals.size() / 2);
  for (std::size_t i = 0; i < preloaded; ++i) {
    ASSERT_TRUE(table.AppendRow(arrivals[i]).ok());
  }
  ViolationIndex index(&table, &rules);

  std::size_t next = preloaded;
  while (next < arrivals.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        1 + rng.NextBounded(17), arrivals.size() - next);
    if (chunk == 1 && rng.NextBernoulli(0.5)) {
      const auto row = index.AppendRow(arrivals[next]);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(*row, static_cast<RowId>(next));
    } else {
      const std::vector<std::vector<std::string>> batch(
          arrivals.begin() + static_cast<std::ptrdiff_t>(next),
          arrivals.begin() + static_cast<std::ptrdiff_t>(next + chunk));
      const auto first = index.AppendRows(batch);
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(*first, static_cast<RowId>(next));
    }
    next += chunk;
    if (rng.NextBounded(3) == 0) ExpectMatchesRebuild(index, rules);
  }
  EXPECT_EQ(table.num_rows(), arrivals.size());
  ExpectMatchesRebuild(index, rules);
}

TEST_P(StreamingDifferentialTest, AppendsInterleavedWithRepairsMatchRebuild) {
  // Streaming is not append-only in practice: the session repairs cells
  // between admissions. Random interleavings of ApplyCellChange and
  // appends must preserve the differential property.
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed ^ 0xFEEDFACEULL);
  const RuleSet rules = TestRules();

  Table table(rules.schema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.AppendRow(RandomRow(&rng)).ok());
  }
  ViolationIndex index(&table, &rules);

  for (int step = 0; step < 100; ++step) {
    if (rng.NextBounded(3) == 0) {
      std::vector<std::vector<std::string>> batch;
      const std::size_t chunk = 1 + rng.NextBounded(5);
      for (std::size_t i = 0; i < chunk; ++i) {
        batch.push_back(RandomRow(&rng));
      }
      ASSERT_TRUE(index.AppendRows(batch).ok());
    } else {
      const RowId row = static_cast<RowId>(rng.NextBounded(table.num_rows()));
      const AttrId attr =
          static_cast<AttrId>(rng.NextBounded(table.num_attrs()));
      const ValueId value =
          static_cast<ValueId>(rng.NextBounded(table.DomainSize(attr)));
      index.ApplyCellChange(row, attr, value);
    }
    if (step % 20 == 19) ExpectMatchesRebuild(index, rules);
  }
  ExpectMatchesRebuild(index, rules);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingDifferentialTest,
                         ::testing::Range(1, 11));

TEST(StreamingIndexTest, FailedBatchAppendChangesNothing) {
  const RuleSet rules = TestRules();
  Table table(rules.schema());
  Rng rng(9);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(table.AppendRow(RandomRow(&rng)).ok());
  }
  ViolationIndex index(&table, &rules);
  const std::uint64_t version = index.version();
  const std::int64_t total = index.TotalViolations();
  const std::vector<RowId> dirty = index.DirtyRows();

  // Arity error in the middle of the batch: all-or-nothing demands the
  // table, the aggregates, and the version stay exactly as they were.
  const auto failed = index.AppendRows({{"Main St", "Westville", "IN", "46391"},
                                        {"Oak Ave", "too", "short"},
                                        {"Main St", "Westville", "IN", "46391"}});
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(table.num_rows(), 15u);
  EXPECT_EQ(index.version(), version);
  EXPECT_EQ(index.TotalViolations(), total);
  EXPECT_EQ(index.DirtyRows(), dirty);
  ExpectMatchesRebuild(index, rules);

  EXPECT_FALSE(index.AppendRows({}).ok());
  EXPECT_EQ(table.num_rows(), 15u);
}

TEST(StreamingIndexTest, AppendBumpsVersionOncePerCall) {
  const RuleSet rules = TestRules();
  Table table(rules.schema());
  ViolationIndex index(&table, &rules);
  const std::uint64_t v0 = index.version();
  ASSERT_TRUE(index
                  .AppendRows({{"Main St", "Westville", "IN", "46391"},
                               {"Oak Ave", "Westville", "IN", "46391"}})
                  .ok());
  EXPECT_EQ(index.version(), v0 + 1);
  ASSERT_TRUE(index.AppendRow({"Main St", "Westville", "IN", "46825"}).ok());
  EXPECT_EQ(index.version(), v0 + 2);
}

TEST(StreamingIndexTest, BenefitOverAppendedRowsMatchesBruteForce) {
  // Hypothetical scoring must treat appended rows exactly like original
  // ones: every benefit over the grown index equals the brute-force oracle
  // over the grown table.
  const RuleSet rules = TestRules();
  Table table(rules.schema());
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.AppendRow(RandomRow(&rng)).ok());
  }
  ViolationIndex index(&table, &rules);
  std::vector<std::vector<std::string>> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(RandomRow(&rng));
  ASSERT_TRUE(index.AppendRows(batch).ok());

  std::vector<double> weights(rules.size());
  for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();
  const VoiRanker ranker(&index, &weights);
  for (int i = 0; i < 40; ++i) {
    Update update;
    // Every other probe lands on an appended row.
    update.row = static_cast<RowId>(
        i % 2 == 0 ? 10 + rng.NextBounded(10)
                   : rng.NextBounded(table.num_rows()));
    update.attr = static_cast<AttrId>(rng.NextBounded(table.num_attrs()));
    update.value =
        static_cast<ValueId>(rng.NextBounded(table.DomainSize(update.attr)));
    EXPECT_EQ(ranker.UpdateBenefit(update),
              voi_testing::BruteForceBenefit(table, rules, weights, update))
        << "probe " << i;
  }
}

TEST(StreamingIndexTest, StreamGenChunkingIsContentInvariant) {
  // The generator adapter's defining property: rows depend only on their
  // index, so different chunk sizes deliver identical streams.
  StreamGenOptions options;
  options.records = 500;
  options.cities = 20;
  options.seed = 77;

  std::vector<std::vector<std::string>> by_7, by_64;
  auto s1 = MakeStreamGenStream(options);
  auto s2 = MakeStreamGenStream(options);
  ASSERT_TRUE(s1.ok() && s2.ok());
  while (*(*s1)->NextChunk(7, &by_7) > 0) {
  }
  while (*(*s2)->NextChunk(64, &by_64) > 0) {
  }
  EXPECT_EQ(by_7.size(), 500u);
  EXPECT_EQ(by_7, by_64);
}

TEST(StreamingIndexTest, StreamGenIngestMatchesRebuildAtScale) {
  // A miniature of bench_stream's CI gate, kept fast enough for ctest:
  // 4000 generated rows through chunked AppendRows vs one rebuild.
  StreamGenOptions options;
  options.records = 4000;
  options.cities = 80;
  options.dirty_fraction = 0.05;
  options.seed = 3;
  auto rules_or = StreamGenRules(options);
  ASSERT_TRUE(rules_or.ok());
  const RuleSet rules = *std::move(rules_or);
  auto stream_or = MakeStreamGenStream(options);
  ASSERT_TRUE(stream_or.ok());
  const std::unique_ptr<RowStream> stream = std::move(*stream_or);

  Table table(rules.schema());
  ViolationIndex index(&table, &rules);
  std::vector<std::vector<std::string>> chunk;
  while (true) {
    chunk.clear();
    const auto pulled = stream->NextChunk(257, &chunk);
    ASSERT_TRUE(pulled.ok());
    if (*pulled == 0) break;
    ASSERT_TRUE(index.AppendRows(chunk).ok());
  }
  EXPECT_EQ(table.num_rows(), 4000u);
  EXPECT_GT(index.DirtyRows().size(), 0u);
  ExpectMatchesRebuild(index, rules);
}

}  // namespace
}  // namespace gdr
