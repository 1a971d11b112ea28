// Golden quality pins: absolute repair outcomes per (workload, strategy,
// seed) under the Figure 4 protocol (user budget = E, the initial
// dirty-tuple count). Every entry stores the result fingerprint (stats,
// accuracy, losses and curve, doubles by bit pattern) plus the readable
// numbers it summarizes, so a change that alters any repair — even a
// deterministic one — fails here with the affected entries named.
//
// The pins live in tests/golden/quality.txt. After an intended change in
// repair behaviour, rewrite them with
//
//   golden_quality_test --regenerate
//
// and call out the diff in the change description.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfd/violation_index.h"
#include "core/quality.h"
#include "core/session.h"
#include "sim/experiment.h"
#include "sim/oracle.h"
#include "workload/registry.h"

#ifndef GDR_GOLDEN_QUALITY_FILE
#error "GDR_GOLDEN_QUALITY_FILE must name tests/golden/quality.txt"
#endif

namespace gdr {
namespace {

constexpr Strategy kAllStrategies[] = {
    Strategy::kGdr,           Strategy::kGdrSLearning, Strategy::kGdrNoLearning,
    Strategy::kActiveLearning, Strategy::kGreedy,      Strategy::kRandomRanking,
};

// The appended-rows session: copies of this many of its own dirty rows
// join before this pull (1-based), mid-batch-cycle, so the live-ranking
// merge rescores the groups the admission touched.
constexpr std::size_t kAppendRows = 8;
constexpr int kAppendBeforePull = 6;

const Dataset& CachedDataset(const std::string& spec) {
  static std::map<std::string, Dataset> cache;
  auto it = cache.find(spec);
  if (it == cache.end()) {
    Result<Dataset> resolved = WorkloadRegistry::Global().Resolve(spec);
    if (!resolved.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.c_str(),
                   resolved.status().ToString().c_str());
      std::abort();
    }
    it = cache.emplace(spec, std::move(*resolved)).first;
  }
  return it->second;
}

std::vector<RowId> InitialDirtyRows(const Dataset& dataset) {
  Table dirty = dataset.dirty;
  const ViolationIndex index(&dirty, &dataset.rules);
  return index.DirtyRows();
}

std::vector<std::string> RowValues(const Table& table, RowId row) {
  std::vector<std::string> values;
  for (std::size_t a = 0; a < table.num_attrs(); ++a) {
    values.push_back(table.at(row, static_cast<AttrId>(a)));
  }
  return values;
}

std::string FormatEntry(const std::string& name, std::size_t budget,
                        const ExperimentResult& result) {
  char numbers[256];
  std::snprintf(numbers, sizeof(numbers),
                " precision=%.6f recall=%.6f improvement_pct=%.4f user=%zu "
                "learner=%zu",
                result.accuracy.Precision(), result.accuracy.Recall(),
                result.final_improvement_pct, result.stats.user_feedback,
                result.stats.learner_decisions);
  return name + " E=" + std::to_string(budget) +
         " fingerprint=" + FingerprintExperimentResult(result) +
         numbers;
}

std::string GridEntry(const std::string& spec, Strategy strategy,
                      std::uint64_t seed) {
  const Dataset& dataset = CachedDataset(spec);
  ExperimentConfig config;
  config.strategy = strategy;
  config.feedback_budget = InitialDirtyRows(dataset).size();
  config.seed = seed;
  const Result<ExperimentResult> result =
      RunStrategyExperiment(dataset, config);
  const std::string name = spec + " " + StrategyName(strategy) +
                           " seed=" + std::to_string(seed);
  if (!result.ok()) return name + " error=" + result.status().ToString();
  return FormatEntry(name, config.feedback_budget, *result);
}

// GDR on dataset1 with copies of its first kAppendRows dirty rows appended
// before pull kAppendBeforePull. The simulated user answers appended rows
// from the clean copies of their source rows; quality is measured on the
// grown instance.
std::string AppendEntry() {
  const std::string spec = "dataset1:records=1000";
  const Dataset& dataset = CachedDataset(spec);
  const std::vector<RowId> dirty_rows = InitialDirtyRows(dataset);
  std::vector<std::vector<std::string>> appended;
  Table truth = dataset.clean;
  Table initial = dataset.dirty;
  for (std::size_t k = 0; k < kAppendRows; ++k) {
    appended.push_back(RowValues(dataset.dirty, dirty_rows[k]));
    EXPECT_TRUE(truth.AppendRow(RowValues(dataset.clean, dirty_rows[k])).ok());
    EXPECT_TRUE(initial.AppendRow(appended.back()).ok());
  }

  constexpr std::uint64_t kSeed = 1;
  GdrOptions options;
  options.strategy = Strategy::kGdr;
  options.feedback_budget = dirty_rows.size();
  options.seed = kSeed;
  UserOracleOptions oracle_options;
  oracle_options.seed = kSeed ^ 0xA5A5A5A5ULL;
  UserOracle oracle(&truth, oracle_options);

  Table working = dataset.dirty;
  GdrSession session(&working, &dataset.rules, options);
  EXPECT_TRUE(session.Start().ok());
  const QualityEvaluator evaluator(truth, &dataset.rules,
                                   session.engine().rule_weights());
  std::size_t newly_dirty = 0;
  for (int pull = 1; session.state() != SessionState::kDone; ++pull) {
    if (pull == kAppendBeforePull) {
      const Result<SessionAppendOutcome> admitted =
          session.AppendDirtyRows(appended);
      EXPECT_TRUE(admitted.ok());
      if (admitted.ok()) newly_dirty = admitted->newly_dirty;
    }
    const Result<std::vector<SuggestedUpdate>> batch = session.NextBatch();
    if (!batch.ok()) {
      return spec + " GDR+append error=" + batch.status().ToString();
    }
    for (const SuggestedUpdate& suggestion : *batch) {
      if (!session.IsLive(suggestion.update_id)) continue;
      const Feedback feedback =
          oracle.GetFeedback(session.table(), suggestion.update);
      EXPECT_TRUE(session.SubmitFeedback(suggestion.update_id, feedback).ok());
    }
  }
  // The entry exists to cover admission in the middle of an iteration.
  EXPECT_GT(newly_dirty, 0u);

  Table initial_copy = initial;
  const ViolationIndex initial_index(&initial_copy, &dataset.rules);
  ExperimentResult result;
  result.strategy_name = StrategyName(Strategy::kGdr);
  result.stats = session.stats();
  result.initial_loss = evaluator.Loss(initial_index);
  result.final_loss = evaluator.Loss(session.engine().index());
  result.final_improvement_pct =
      evaluator.ImprovementPct(session.engine().index(), result.initial_loss);
  result.curve = {{0, 0.0, result.initial_loss},
                  {result.stats.user_feedback, result.final_improvement_pct,
                   result.final_loss}};
  result.remaining_violations = session.engine().index().TotalViolations();
  const Result<RepairAccuracy> accuracy =
      ComputeRepairAccuracy(initial, session.table(), truth);
  EXPECT_TRUE(accuracy.ok());
  if (accuracy.ok()) result.accuracy = *accuracy;
  return FormatEntry(spec + " GDR+append" + std::to_string(kAppendRows) +
                         "@pull" + std::to_string(kAppendBeforePull) +
                         " seed=" + std::to_string(kSeed),
                     options.feedback_budget, result);
}

std::vector<std::string> ComputeEntries() {
  std::vector<std::string> entries;
  for (const char* spec : {"dataset1:records=1000", "dataset2:records=1000"}) {
    for (Strategy strategy : kAllStrategies) {
      for (std::uint64_t seed : {1, 2}) {
        entries.push_back(GridEntry(spec, strategy, seed));
      }
    }
  }
  for (Strategy strategy : {Strategy::kGdr, Strategy::kGdrNoLearning}) {
    entries.push_back(GridEntry("dataset1:records=4000", strategy, 1));
  }
  entries.push_back(AppendEntry());
  return entries;
}

constexpr char kHeader[] =
    "# Golden quality pins: one run per line at user budget = E (the initial\n"
    "# dirty-tuple count, Figure 4 protocol). fingerprint digests stats,\n"
    "# accuracy, losses and the quality curve bit for bit. Regenerate with\n"
    "# `golden_quality_test --regenerate` and call out any diff.\n";

std::vector<std::string> ReadPins() {
  std::ifstream in(GDR_GOLDEN_QUALITY_FILE);
  std::vector<std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') pins.push_back(line);
  }
  return pins;
}

int Regenerate() {
  std::ostringstream out;
  out << kHeader;
  for (const std::string& entry : ComputeEntries()) out << entry << '\n';
  std::ofstream file(GDR_GOLDEN_QUALITY_FILE, std::ios::trunc);
  file << out.str();
  if (!file.good()) {
    std::fprintf(stderr, "cannot write %s\n", GDR_GOLDEN_QUALITY_FILE);
    return 1;
  }
  std::printf("wrote %s\n", GDR_GOLDEN_QUALITY_FILE);
  return 0;
}

TEST(GoldenQualityTest, MatchesCommittedPins) {
  const std::vector<std::string> pins = ReadPins();
  const std::vector<std::string> entries = ComputeEntries();
  ASSERT_EQ(pins.size(), entries.size())
      << "pin count differs; regenerate " << GDR_GOLDEN_QUALITY_FILE;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i], pins[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regenerate") == 0) return gdr::Regenerate();
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
