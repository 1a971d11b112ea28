// Reproduces Figure 4 of the paper: "Overall evaluation of GDR compared
// with other techniques."
//
// Protocol (Section 5.2): the user affords at most E verified updates
// (E = initially identified dirty tuples); feedback is reported as a
// percentage of E. Strategies: GDR (VOI + active learning), GDR-S-Learning
// (VOI + passive learning), GDR-NoLearning (VOI only), Active-Learning
// (no grouping), and the Automatic-Heuristic constant line (BatchRepair).
//
// Flags: --workload=name:key=val,... (repeatable; default dataset1 and
//         dataset2, parameterized by the legacy flags below)
//         --records=N (default 4000; pass --records=20000 for the paper's
//         scale — the interactive loop re-ranks the whole candidate pool
//         after every n_s labels, so full scale takes tens of minutes)
//         --seed=S (default 42)
//        --budget_pct=P (default 100, user budget as % of E)
#include <cstdio>

#include "bench/bench_util.h"
#include "cfd/violation_index.h"
#include "sim/experiment.h"
#include "util/stopwatch.h"

namespace gdr {
namespace {

std::size_t InitialDirtyCount(const Dataset& dataset) {
  Table dirty = dataset.dirty;
  ViolationIndex index(&dirty, &dataset.rules);
  return index.DirtyRows().size();
}

void RunFigure4(const Dataset& dataset, const char* figure,
                std::uint64_t seed, double budget_pct) {
  const std::size_t initial_dirty = InitialDirtyCount(dataset);
  const std::size_t budget = static_cast<std::size_t>(
      static_cast<double>(initial_dirty) * budget_pct / 100.0);
  std::printf("== Figure 4%s: %s (E=%zu, budget=%zu) ==\n", figure,
              dataset.name.c_str(), initial_dirty, budget);
  std::printf("%-16s %10s %12s\n", "strategy", "feedback%", "improvement%");

  for (Strategy strategy :
       {Strategy::kGdr, Strategy::kGdrSLearning, Strategy::kGdrNoLearning,
        Strategy::kActiveLearning}) {
    Stopwatch watch;
    ExperimentConfig config;
    config.strategy = strategy;
    config.feedback_budget = budget;
    config.seed = seed;
    config.sample_every = 50;
    auto result = RunStrategyExperiment(dataset, config);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    for (int pct = 0; pct <= 100; pct += 10) {
      const double target =
          static_cast<double>(initial_dirty) * pct / 100.0;
      const CurvePoint* best = &result->curve.front();
      for (const CurvePoint& point : result->curve) {
        if (static_cast<double>(point.feedback) <= target) best = &point;
      }
      std::printf("%-16s %10d %12.1f\n", result->strategy_name.c_str(), pct,
                  best->improvement_pct);
    }
    std::printf(
        "# %s: feedback=%zu learner_decisions=%zu final=%.1f%% "
        "precision=%.3f recall=%.3f wall=%.1fs\n",
        result->strategy_name.c_str(), result->stats.user_feedback,
        result->stats.learner_decisions, result->final_improvement_pct,
        result->accuracy.Precision(), result->accuracy.Recall(),
        watch.ElapsedSeconds());
  }

  // The no-feedback constant line.
  Stopwatch watch;
  auto heuristic = RunHeuristicExperiment(dataset);
  if (heuristic.ok()) {
    std::printf("%-16s %10s %12.1f\n", "Heuristic", "any",
                heuristic->final_improvement_pct);
    std::printf("# Heuristic: final=%.1f%% precision=%.3f recall=%.3f "
                "wall=%.1fs\n",
                heuristic->final_improvement_pct,
                heuristic->accuracy.Precision(),
                heuristic->accuracy.Recall(), watch.ElapsedSeconds());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) {
  const gdr::bench::Flags flags(argc, argv);
  const std::string records = flags.GetString("records", "4000");
  const std::string seed = flags.GetString("seed", "42");
  const std::uint64_t experiment_seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const double budget_pct = flags.GetDouble("budget_pct", 100.0);

  const auto specs = gdr::bench::WorkloadSpecsOrDefaults(
      flags, {"dataset1:records=" + records + ",seed=" + seed,
              "dataset2:records=" + records + ",seed=" + seed});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto dataset = gdr::bench::ResolveWorkloadCachedOrReport(specs[i]);
    if (!dataset.ok()) return 1;
    const std::string figure = "(" + std::string(1, char('a' + i % 26)) + ")";
    gdr::RunFigure4(**dataset, figure.c_str(), experiment_seed, budget_pct);
  }
  return 0;
}
