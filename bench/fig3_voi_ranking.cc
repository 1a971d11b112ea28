// Reproduces Figure 3 of the paper: "Comparing VOI-based ranking in GDR
// (GDR-NoLearning) to other strategies against the amount of feedback."
//
// Protocol (Section 5.1): no learning component; the user verifies every
// suggested update; strategies differ only in how update groups are
// ranked — VOI (Eq. 6), by group size (Greedy), or uniformly at random.
// Each strategy runs until convergence (clean database or exhausted
// suggestions); feedback on the x-axis is normalized by the strategy's own
// total, as in the paper ("percentage of the maximum number of verified
// updates required by an approach").
//
// Flags: --workload=name:key=val,... (repeatable; default dataset1 and
//        dataset2, parameterized by the legacy flags below)
//        --records=N (default 20000) --seed=S (default 42)
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/experiment.h"
#include "util/stopwatch.h"

namespace gdr {
namespace {

void RunFigure3(const Dataset& dataset, const char* figure,
                std::uint64_t seed) {
  std::printf("== Figure 3%s: %s ==\n", figure, dataset.name.c_str());
  std::printf("%-16s %10s %12s\n", "strategy", "feedback%", "improvement%");
  for (Strategy strategy : {Strategy::kGdrNoLearning, Strategy::kGreedy,
                            Strategy::kRandomRanking}) {
    Stopwatch watch;
    ExperimentConfig config;
    config.strategy = strategy;
    config.seed = seed;
    config.sample_every = 50;
    auto result = RunStrategyExperiment(dataset, config);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    const double total = static_cast<double>(result->stats.user_feedback);
    // The paper's reading points: every 10% of the strategy's own total.
    for (int pct = 0; pct <= 100; pct += 10) {
      const double target = total * pct / 100.0;
      const CurvePoint* best = &result->curve.front();
      for (const CurvePoint& point : result->curve) {
        if (static_cast<double>(point.feedback) <= target) best = &point;
      }
      std::printf("%-16s %10d %12.1f\n",
                  result->strategy_name.c_str(), pct,
                  best->improvement_pct);
    }
    std::printf(
        "# %s: total_feedback=%zu confirms=%zu rejects=%zu retains=%zu "
        "final=%.1f%% wall=%.1fs\n",
        result->strategy_name.c_str(), result->stats.user_feedback,
        result->stats.user_confirms, result->stats.user_rejects,
        result->stats.user_retains, result->final_improvement_pct,
        watch.ElapsedSeconds());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) {
  const gdr::bench::Flags flags(argc, argv);
  const std::string records = flags.GetString("records", "20000");
  const std::string seed = flags.GetString("seed", "42");

  const auto specs = gdr::bench::WorkloadSpecsOrDefaults(
      flags, {"dataset1:records=" + records + ",seed=" + seed,
              "dataset2:records=" + records + ",seed=" + seed});
  const std::uint64_t experiment_seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto dataset = gdr::bench::ResolveWorkloadCachedOrReport(specs[i]);
    if (!dataset.ok()) return 1;
    const std::string figure = "(" + std::string(1, char('a' + i % 26)) + ")";
    gdr::RunFigure3(**dataset, figure.c_str(), experiment_seed);
  }
  return 0;
}
