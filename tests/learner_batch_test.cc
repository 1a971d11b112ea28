// Batched learner inference: LearnerBank::Votes and its readers (row-major
// feature matrix + tree-at-a-time forest evaluation over SoA trees) must
// be bit-identical to the per-update committee oracles of
// testing/forest_oracle.h — probabilities, scores, AND ranking order —
// across random groups, retrain boundaries, and untrained attributes.
// Also pins the tree's own invariants on fuzzed trees and inputs, and the
// encoder's similarity memo against similarities recomputed from strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/learner_bank.h"
#include "core/voi.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "testing/forest_oracle.h"
#include "util/rng.h"
#include "util/string_similarity.h"

namespace gdr {
namespace {

using forest_testing::OracleConfirmProbability;
using forest_testing::OracleMajorityClass;
using forest_testing::OracleUncertainty;
using forest_testing::OracleVoteEntropy;
using forest_testing::OracleVoteFractions;

// ---------------------------------------------------------------------------
// Tree and forest invariants on fuzzed trees and inputs.

// Labels follow the first two features; `noisy` flips in random
// disagreement, otherwise equal feature vectors always share a label.
TrainingSet FuzzedTrainingSet(Rng* rng, std::size_t num_features,
                              int num_classes, std::size_t num_examples,
                              bool noisy = true) {
  std::vector<FeatureDesc> descs;
  for (std::size_t f = 0; f < num_features; ++f) {
    const bool categorical = rng->NextBounded(2) == 0;
    descs.push_back({"f" + std::to_string(f),
                     categorical ? FeatureType::kCategorical
                                 : FeatureType::kNumeric});
  }
  TrainingSet set(FeatureSchema(descs), num_classes);
  for (std::size_t i = 0; i < num_examples; ++i) {
    Example example;
    for (std::size_t f = 0; f < num_features; ++f) {
      example.features.push_back(
          descs[f].type == FeatureType::kCategorical
              ? static_cast<double>(rng->NextBounded(5))
              : rng->NextDouble() * 10.0);
    }
    // Learnable labels so trees grow real split structure.
    const double signal = example.features[0] + example.features[1 % num_features];
    example.label = static_cast<int>(
        (static_cast<std::size_t>(signal) + (noisy ? rng->NextBounded(2) : 0)) %
        static_cast<std::size_t>(num_classes));
    EXPECT_TRUE(set.Add(std::move(example)).ok());
  }
  return set;
}

std::vector<double> FuzzedInput(Rng* rng, const FeatureSchema& schema) {
  std::vector<double> features;
  for (std::size_t f = 0; f < schema.num_features(); ++f) {
    features.push_back(schema.IsCategorical(f)
                           ? static_cast<double>(rng->NextBounded(6))
                           : rng->NextDouble() * 12.0 - 1.0);
  }
  return features;
}

class FlatTreeTest : public ::testing::TestWithParam<int> {};

// On consistent labels, a tree grown with every feature and no depth
// limit separates its training set: every example is predicted as its own
// label.
TEST_P(FlatTreeTest, UnlimitedTreeFitsConsistentLabels) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 7);
  const std::size_t num_features = 2 + rng.NextBounded(6);
  const int num_classes = 2 + static_cast<int>(rng.NextBounded(3));
  const TrainingSet set =
      FuzzedTrainingSet(&rng, num_features, num_classes,
                        40 + rng.NextBounded(120), /*noisy=*/false);

  DecisionTreeOptions options;
  options.max_depth = 1 << 20;
  options.min_samples_split = 2;
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, options).ok());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(tree.Predict(set.example(i).features), set.example(i).label)
        << "example " << i;
  }
}

TEST_P(FlatTreeTest, ForestBatchMatchesPerRowFractions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const std::size_t num_features = 3 + rng.NextBounded(4);
  const TrainingSet set = FuzzedTrainingSet(&rng, num_features, 3, 120);

  RandomForestOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) + 11;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Train(set).ok());

  for (const std::size_t rows : {std::size_t{1}, std::size_t{4}, std::size_t{33}}) {
    std::vector<double> matrix;
    std::vector<std::vector<double>> inputs;
    for (std::size_t r = 0; r < rows; ++r) {
      inputs.push_back(FuzzedInput(&rng, set.schema()));
      matrix.insert(matrix.end(), inputs.back().begin(), inputs.back().end());
    }
    std::vector<double> batch;
    forest.VoteFractionsBatch(matrix.data(), rows, num_features, &batch);
    ASSERT_EQ(batch.size(), rows * static_cast<std::size_t>(forest.num_classes()));
    const std::size_t classes =
        static_cast<std::size_t>(forest.num_classes());
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> oracle = OracleVoteFractions(forest, inputs[r]);
      const std::span<const double> row =
          std::span<const double>(batch).subspan(r * classes, classes);
      for (std::size_t c = 0; c < classes; ++c) {
        EXPECT_EQ(row[c], oracle[c]) << r << "," << c;
      }
      EXPECT_EQ(RandomForest::MajorityClass(row), OracleMajorityClass(oracle))
          << r;
      EXPECT_EQ(RandomForest::VoteEntropy(row), OracleVoteEntropy(oracle))
          << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatTreeTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Batched p̃ ≡ scalar p̃ over a live bank.

// Randomized instance mirroring voi_batched_test, plus a learner bank the
// tests feed synthetic-but-deterministic feedback into.
struct RandomLearnerInstance {
  explicit RandomLearnerInstance(std::uint64_t seed)
      : schema(*Schema::Make({"STR", "CT", "STT", "ZIP"})),
        table(schema),
        rules(schema),
        rng(seed) {
    const char* streets[] = {"Main St", "Oak Ave", "Sherden Rd", "Elm St"};
    const char* cities[] = {"Fort Wayne", "Westville", "Michigan City"};
    const char* states[] = {"IN", "IND"};
    const char* zips[] = {"46825", "46391", "46360", "46802", "46774"};
    for (int i = 0; i < 80; ++i) {
      EXPECT_TRUE(table
                      .AppendRow({streets[rng.NextBounded(4)],
                                  cities[rng.NextBounded(3)],
                                  states[rng.NextBounded(2)],
                                  zips[rng.NextBounded(5)]})
                      .ok());
    }
    EXPECT_TRUE(
        rules.AddRuleFromString("c1", "ZIP=46360 -> CT=Michigan City ; STT=IN")
            .ok());
    EXPECT_TRUE(rules.AddRuleFromString("c2", "ZIP=46391 -> CT=Westville")
                    .ok());
    EXPECT_TRUE(rules.AddRuleFromString("v1", "STR, CT -> ZIP").ok());
    EXPECT_TRUE(rules.AddRuleFromString("v2", "ZIP -> CT").ok());
    index = std::make_unique<ViolationIndex>(&table, &rules);

    weights.resize(rules.size());
    for (double& w : weights) w = 0.05 + 0.95 * rng.NextDouble();

    bank_options.min_training_examples = 12;
    bank_options.seed = seed * 31 + 5;
    bank = std::make_unique<LearnerBank>(&table, index.get(), bank_options);

    const std::size_t num_groups = 12;
    for (std::size_t g = 0; g < num_groups; ++g) {
      UpdateGroup group;
      group.attr = static_cast<AttrId>(rng.NextBounded(table.num_attrs()));
      group.value = static_cast<ValueId>(
          rng.NextBounded(table.DomainSize(group.attr)));
      const std::size_t members = 3 + rng.NextBounded(12);
      for (std::size_t row_index :
           rng.SampleWithoutReplacement(table.num_rows(), members)) {
        Update update;
        update.row = static_cast<RowId>(row_index);
        update.attr = group.attr;
        update.value = group.value;
        update.score = rng.NextDouble();
        group.updates.push_back(update);
      }
      groups.push_back(std::move(group));
    }
  }

  // Deterministic synthetic label; what it "means" is irrelevant — the
  // differential only needs trained committees with real vote structure.
  Feedback LabelFor(const Update& update) const {
    return static_cast<Feedback>(
        (static_cast<std::size_t>(update.row) +
         static_cast<std::size_t>(update.attr) * 3 +
         static_cast<std::size_t>(update.value)) %
        static_cast<std::size_t>(kNumFeedbackClasses));
  }

  // Feeds every update of every group whose attr is in `attrs` as labeled
  // feedback and retrains those models.
  void TrainAttrs(const std::vector<AttrId>& attrs) {
    for (const UpdateGroup& group : groups) {
      if (std::find(attrs.begin(), attrs.end(), group.attr) == attrs.end()) {
        continue;
      }
      for (const Update& update : group.updates) {
        ASSERT_TRUE(bank->AddFeedback(update, LabelFor(update)).ok());
      }
    }
    for (AttrId attr : attrs) ASSERT_TRUE(bank->Retrain(attr).ok());
  }

  Schema schema;
  Table table;
  RuleSet rules;
  Rng rng;
  std::unique_ptr<ViolationIndex> index;
  std::vector<double> weights;
  LearnerBankOptions bank_options;
  std::unique_ptr<LearnerBank> bank;
  std::vector<UpdateGroup> groups;
};

// Both readers of the one committee evaluation, per group.
void ExpectBatchedMatchesOracle(const RandomLearnerInstance& inst) {
  std::vector<double> batched;
  std::vector<double> uncertainties;
  for (const UpdateGroup& group : inst.groups) {
    const std::span<const Update> updates(group.updates);
    inst.bank->ConfirmProbabilities(updates, &batched);
    inst.bank->Uncertainties(updates, &uncertainties);
    ASSERT_EQ(batched.size(), group.updates.size());
    ASSERT_EQ(uncertainties.size(), group.updates.size());
    for (std::size_t j = 0; j < group.updates.size(); ++j) {
      EXPECT_EQ(batched[j],
                OracleConfirmProbability(*inst.bank, group.updates[j]))
          << "group attr " << group.attr << " update " << j;
      EXPECT_EQ(uncertainties[j],
                OracleUncertainty(*inst.bank, group.updates[j]))
          << "group attr " << group.attr << " update " << j;
    }
  }
}

class LearnerBatchTest : public ::testing::TestWithParam<int> {};

// Untrained bank: both paths fall back to the repair score per update.
TEST_P(LearnerBatchTest, UntrainedFallbackMatchesOracle) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  ExpectBatchedMatchesOracle(inst);
  std::vector<double> batched;
  for (const UpdateGroup& group : inst.groups) {
    inst.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &batched);
    for (std::size_t j = 0; j < group.updates.size(); ++j) {
      EXPECT_EQ(batched[j], group.updates[j].score);
    }
  }
}

// Trained committees: batched matrix evaluation is bit-identical to the
// scalar oracle, including across retrain boundaries (models retrained on
// more feedback mid-stream) and with a mix of trained and untrained attrs.
TEST_P(LearnerBatchTest, TrainedAndRetrainedMatchesOracle) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));

  // Train a strict subset of attributes: the untrained remainder must keep
  // falling back while trained attrs predict, in the same batch sweep.
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1)});
  ExpectBatchedMatchesOracle(inst);

  // Retrain boundary: more feedback + Retrain, then re-compare. The
  // probabilities may move; the two paths must move together.
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1),
                   static_cast<AttrId>(2), static_cast<AttrId>(3)});
  ExpectBatchedMatchesOracle(inst);
}

// A span holding several attr runs back-to-back (the general contract,
// wider than the one-group-per-call the ranker uses).
TEST_P(LearnerBatchTest, MixedAttrSpanMatchesOracle) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(1), static_cast<AttrId>(3)});

  std::vector<Update> all;
  for (const UpdateGroup& group : inst.groups) {
    all.insert(all.end(), group.updates.begin(), group.updates.end());
  }
  std::vector<double> batched;
  inst.bank->ConfirmProbabilities(std::span<const Update>(all), &batched);
  ASSERT_EQ(batched.size(), all.size());
  for (std::size_t j = 0; j < all.size(); ++j) {
    EXPECT_EQ(batched[j], OracleConfirmProbability(*inst.bank, all[j]));
  }
  std::vector<double> uncertainties;
  inst.bank->Uncertainties(std::span<const Update>(all), &uncertainties);
  ASSERT_EQ(uncertainties.size(), all.size());
  for (std::size_t j = 0; j < all.size(); ++j) {
    EXPECT_EQ(uncertainties[j], OracleUncertainty(*inst.bank, all[j]));
  }
}

// Rank fed the bank (the session's call) is bit-identical — scores AND
// order — to Rank calling the per-update oracle, with trained models in
// the loop, on a cold pass and on a warm one that reuses p̃.
TEST_P(LearnerBatchTest, BatchedInferenceRankingBitIdenticalToScalar) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(2)});

  const ConfirmProbabilityFn scalar = [&inst](const Update& update) {
    return OracleConfirmProbability(*inst.bank, update);
  };

  const VoiRanker ranker(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking reference = ranker.Rank(inst.groups, scalar);
  ASSERT_EQ(reference.scores.size(), inst.groups.size());

  for (int pass = 0; pass < 2; ++pass) {
    const VoiRanker::Ranking ranking = ranker.Rank(inst.groups, *inst.bank);
    EXPECT_EQ(ranking.scores, reference.scores) << "pass " << pass;
    EXPECT_EQ(ranking.order, reference.order) << "pass " << pass;
  }
  EXPECT_GT(ranker.perf_counters().Count(PerfPhase::kLearnerReuse), 0u);
}

// Batched inference accumulates perf counters (encode + tree walk with
// item counts; probes on the ranker side) — the observability half of the
// tentpole.
TEST_P(LearnerBatchTest, PerfCountersAccumulate) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1),
                   static_cast<AttrId>(2), static_cast<AttrId>(3)});

  std::vector<double> out;
  std::size_t expected = 0;
  for (const UpdateGroup& group : inst.groups) {
    inst.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &out);
    // Attrs whose feedback never reached min_training_examples stay
    // untrained and take the score fallback — no encode, no tree walk.
    if (inst.bank->IsTrained(group.attr)) expected += group.updates.size();
  }
  const PerfCounters& perf = inst.bank->perf_counters();
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerEncode), expected);
  EXPECT_EQ(perf.Count(PerfPhase::kLearnerTreeWalk), expected);

  std::size_t total_updates = 0;
  for (const UpdateGroup& group : inst.groups) {
    total_updates += group.updates.size();
  }
  VoiRanker ranker(inst.index.get(), &inst.weights);
  ranker.Rank(inst.groups, [&inst](const Update& update) {
    return OracleConfirmProbability(*inst.bank, update);
  });
  EXPECT_EQ(ranker.perf_counters().Count(PerfPhase::kVoiProbe), total_updates);
  EXPECT_GT(ranker.perf_counters().Seconds(PerfPhase::kVoiProbe), 0.0);
}

// ---------------------------------------------------------------------------
// The encoder's similarity memo against NormalizedEditSimilarity itself.

std::vector<std::uint64_t> Bits(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

// Encode(update) with the similarity feature recomputed from the strings.
std::vector<double> DirectEncoding(const LearnerBank& bank, const Table& table,
                                   const Update& update) {
  std::vector<double> row = bank.Encode(update);
  row[table.num_attrs() + 1] = NormalizedEditSimilarity(
      table.at(update.row, update.attr),
      table.dict(update.attr).ToString(update.value));
  return row;
}

// Every update's Encode row, and the Votes rows of each attribute run, are
// bitwise equal to the rows built from the direct encodings.
void ExpectMemoMatchesDirect(const LearnerBank& bank, const Table& table,
                             const std::vector<Update>& updates) {
  for (const Update& update : updates) {
    ASSERT_EQ(Bits(bank.Encode(update)),
              Bits(DirectEncoding(bank, table, update)))
        << "row " << update.row << " attr " << update.attr << " value "
        << update.value;
  }
  std::vector<double> votes;
  bank.Votes(updates, &votes);
  std::vector<double> expected(votes.size(), 0.0);
  std::vector<double> matrix;
  std::vector<double> fractions;
  for (std::size_t i = 0, j = 0; i < updates.size(); i = j) {
    j = i + 1;
    while (j < updates.size() && updates[j].attr == updates[i].attr) ++j;
    if (!bank.IsTrained(updates[i].attr)) continue;
    matrix.clear();
    for (std::size_t r = i; r < j; ++r) {
      const std::vector<double> row = DirectEncoding(bank, table, updates[r]);
      matrix.insert(matrix.end(), row.begin(), row.end());
    }
    bank.model(updates[i].attr)
        .VoteFractionsBatch(matrix.data(), j - i, matrix.size() / (j - i),
                            &fractions);
    std::copy(fractions.begin(), fractions.end(),
              expected.begin() +
                  static_cast<std::ptrdiff_t>(i * kNumFeedbackClasses));
  }
  EXPECT_EQ(Bits(votes), Bits(expected));
}

// Updates suggesting random values of the current dictionaries, in runs
// of one attribute.
std::vector<Update> RandomUpdates(RandomLearnerInstance* inst,
                                  std::size_t count) {
  std::vector<Update> updates;
  while (updates.size() < count) {
    const AttrId attr =
        static_cast<AttrId>(inst->rng.NextBounded(inst->table.num_attrs()));
    const std::size_t run = 1 + inst->rng.NextBounded(8);
    for (std::size_t k = 0; k < run; ++k) {
      Update update;
      update.row =
          static_cast<RowId>(inst->rng.NextBounded(inst->table.num_rows()));
      update.attr = attr;
      update.value = static_cast<ValueId>(
          inst->rng.NextBounded(inst->table.DomainSize(attr)));
      update.score = inst->rng.NextDouble();
      updates.push_back(update);
    }
  }
  return updates;
}

TEST_P(LearnerBatchTest, SimilarityMemoMatchesDirectSimilarity) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(1),
                   static_cast<AttrId>(2), static_cast<AttrId>(3)});
  std::size_t trained = 0;
  for (std::size_t a = 0; a < inst.table.num_attrs(); ++a) {
    trained += inst.bank->IsTrained(static_cast<AttrId>(a)) ? 1 : 0;
  }
  ASSERT_GT(trained, 0u);
  const std::vector<Update> first = RandomUpdates(&inst, 200);
  // Cold, then warm.
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(*inst.bank, inst.table, first));
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(*inst.bank, inst.table, first));

  // Appends intern values the memo has never seen; old ids keep their
  // strings.
  for (int i = 0; i < 6; ++i) {
    const std::string tag =
        std::to_string(GetParam()) + "-" + std::to_string(i);
    ASSERT_TRUE(inst.index
                    ->AppendRow({"New St " + tag, "Newtown " + tag, "N" + tag,
                                 "4" + tag})
                    .ok());
  }
  const std::vector<Update> second = RandomUpdates(&inst, 200);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(*inst.bank, inst.table, second));
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(*inst.bank, inst.table, first));

  // A bank restored from the saved state starts with an empty memo and
  // votes exactly as the warm one.
  LearnerBank restored(&inst.table, inst.index.get(), inst.bank_options);
  ASSERT_TRUE(restored.LoadState(inst.bank->SaveState()).ok());
  EXPECT_EQ(restored.similarity_memo_size(), 0u);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(restored, inst.table, second));
  std::vector<double> warm;
  std::vector<double> cold;
  inst.bank->Votes(first, &warm);
  restored.Votes(first, &cold);
  EXPECT_EQ(Bits(warm), Bits(cold));

  // Past the size bound: enough distinct (attr, current, suggested)
  // triples to clear the memo, still bitwise equal afterwards.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 300; ++i) {
    const std::string tag = "b" + std::to_string(i);
    rows.push_back({"Bound St " + tag, "Bound " + tag, tag, "9" + tag});
  }
  ASSERT_TRUE(inst.index->AppendRows(rows).ok());
  std::size_t peak = 0;
  bool cleared = false;
  std::vector<Update> swept;
  for (RowId row = 0; row < static_cast<RowId>(inst.table.num_rows()) &&
                      !cleared;
       row += 7) {
    for (std::size_t a = 0; a < inst.table.num_attrs(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      for (std::size_t v = 0; v < inst.table.DomainSize(attr); v += 3) {
        Update update;
        update.row = row;
        update.attr = attr;
        update.value = static_cast<ValueId>(v);
        const std::size_t before = inst.bank->similarity_memo_size();
        (void)inst.bank->Encode(update);
        const std::size_t after = inst.bank->similarity_memo_size();
        ASSERT_LE(after, LearnerBank::kSimilarityMemoLimit);
        peak = std::max(peak, after);
        cleared = cleared || after < before;
        if (swept.size() < 400 && (v / 3) % 5 == 0) swept.push_back(update);
      }
    }
  }
  EXPECT_EQ(peak, LearnerBank::kSimilarityMemoLimit);
  EXPECT_TRUE(cleared);
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(*inst.bank, inst.table, swept));
  ASSERT_NO_FATAL_FAILURE(
      ExpectMemoMatchesDirect(*inst.bank, inst.table, first));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerBatchTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace gdr
