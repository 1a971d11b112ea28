// Batched learner inference: the group-batched ConfirmProbabilities path
// (row-major feature matrix + tree-at-a-time forest evaluation over SoA
// trees) must be bit-identical to the scalar ConfirmProbability —
// probabilities, scores, AND ranking order — across random groups,
// retrain boundaries, and untrained attributes. Also pins the tree's own
// invariants on fuzzed trees and inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/learner_bank.h"
#include "core/voi.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace gdr {
namespace {

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

// Every reachable leaf distribution sums to 1, and its first maximum (the
// tie-break MakeLeaf uses) is the class Predict returns.
TEST_P(FlatTreeTest, LeafDistributionsSumToOneAndArgmaxIsPredict) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t num_features = 2 + rng.NextBounded(6);
  const int num_classes = 2 + static_cast<int>(rng.NextBounded(3));
  const TrainingSet set =
      FuzzedTrainingSet(&rng, num_features, num_classes, 40 + rng.NextBounded(120));

  DecisionTreeOptions options;
  options.feature_subsample = 1 + static_cast<int>(rng.NextBounded(num_features));
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(set, options, &rng).ok());

  std::vector<double> dist;
  for (int probe = 0; probe < 200; ++probe) {
    const std::vector<double> input = FuzzedInput(&rng, set.schema());
    tree.PredictDistributionInto(input, &dist);
    ASSERT_EQ(dist.size(), static_cast<std::size_t>(num_classes));
    double sum = 0.0;
    for (double p : dist) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    const auto max_it = std::max_element(dist.begin(), dist.end());
    EXPECT_EQ(tree.Predict(input),
              static_cast<int>(std::distance(dist.begin(), max_it)));
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
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> per_row = forest.VoteFractions(inputs[r]);
      for (std::size_t c = 0; c < per_row.size(); ++c) {
        EXPECT_EQ(batch[r * per_row.size() + c], per_row[c]) << r << "," << c;
      }
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

    LearnerBankOptions bank_options;
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
  std::unique_ptr<LearnerBank> bank;
  std::vector<UpdateGroup> groups;
};

void ExpectBatchedMatchesOracle(const RandomLearnerInstance& inst) {
  std::vector<double> batched;
  for (const UpdateGroup& group : inst.groups) {
    inst.bank->ConfirmProbabilities(std::span<const Update>(group.updates),
                                    &batched);
    ASSERT_EQ(batched.size(), group.updates.size());
    for (std::size_t j = 0; j < group.updates.size(); ++j) {
      EXPECT_EQ(batched[j], inst.bank->ConfirmProbability(group.updates[j]))
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
    EXPECT_EQ(batched[j], inst.bank->ConfirmProbability(all[j]));
  }
}

// Rank with the batch p̃ function installed is bit-identical — scores AND
// order — to a ranker calling the scalar function per update, with trained
// models in the loop.
TEST_P(LearnerBatchTest, BatchedInferenceRankingBitIdenticalToScalar) {
  RandomLearnerInstance inst(static_cast<std::uint64_t>(GetParam()));
  inst.TrainAttrs({static_cast<AttrId>(0), static_cast<AttrId>(2)});

  const ConfirmProbabilityFn scalar = [&inst](const Update& update) {
    return inst.bank->ConfirmProbability(update);
  };
  const ConfirmProbabilityBatchFn batch_fn =
      [&inst](std::span<const Update> updates, std::vector<double>* out) {
        inst.bank->ConfirmProbabilities(updates, out);
      };

  const VoiRanker per_update(inst.index.get(), &inst.weights);
  const VoiRanker::Ranking reference = per_update.Rank(inst.groups, scalar);
  ASSERT_EQ(reference.scores.size(), inst.groups.size());

  VoiRanker batched(inst.index.get(), &inst.weights);
  batched.set_batch_probability_fn(batch_fn);
  const VoiRanker::Ranking ranking = batched.Rank(inst.groups, scalar);
  EXPECT_EQ(ranking.scores, reference.scores);
  EXPECT_EQ(ranking.order, reference.order);
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
    return inst.bank->ConfirmProbability(update);
  });
  EXPECT_EQ(ranker.perf_counters().Count(PerfPhase::kVoiProbe), total_updates);
  EXPECT_GT(ranker.perf_counters().Seconds(PerfPhase::kVoiProbe), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerBatchTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace gdr
