// Reproduces Figure 5 of the paper: "Accuracy vs. user efforts" (Appendix
// B.1). The user affords verifying F updates (x-axis: F as a percentage of
// the initially identified dirty tuples); GDR decides the rest of the
// updates automatically. Reports precision and recall of the applied
// repairs against the ground truth.
//
// Flags: --workload=name:key=val,... (repeatable; default dataset1 and
//         dataset2, parameterized by the legacy flags below)
//         --records=N (default 4000; pass --records=20000 for the paper's
//         scale — the interactive loop re-ranks the whole candidate pool
//         after every n_s labels, so full scale takes tens of minutes)
//         --seed=S (default 42)
#include <cstdio>

#include "bench/bench_util.h"
#include "cfd/violation_index.h"
#include "sim/experiment.h"
#include "util/stopwatch.h"

namespace gdr {
namespace {

void RunFigure5(const Dataset& dataset, const char* figure,
                std::uint64_t seed) {
  Table dirty = dataset.dirty;
  ViolationIndex index(&dirty, &dataset.rules);
  const std::size_t initial_dirty = index.DirtyRows().size();

  std::printf("== Figure 5%s: %s (E=%zu) ==\n", figure, dataset.name.c_str(),
              initial_dirty);
  std::printf("%10s %10s %10s %14s\n", "feedback%", "precision", "recall",
              "improvement%");
  for (int pct : {10, 20, 40, 60, 80, 100}) {
    Stopwatch watch;
    ExperimentConfig config;
    config.strategy = Strategy::kGdr;
    config.feedback_budget = static_cast<std::size_t>(
        static_cast<double>(initial_dirty) * pct / 100.0);
    config.seed = seed;
    config.sample_every = 1000000;  // only endpoints matter here
    auto result = RunStrategyExperiment(dataset, config);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("%10d %10.3f %10.3f %14.1f   # feedback=%zu wall=%.1fs\n",
                pct, result->accuracy.Precision(),
                result->accuracy.Recall(), result->final_improvement_pct,
                result->stats.user_feedback, watch.ElapsedSeconds());
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

  const auto specs = gdr::bench::WorkloadSpecsOrDefaults(
      flags, {"dataset1:records=" + records + ",seed=" + seed,
              "dataset2:records=" + records + ",seed=" + seed});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto dataset = gdr::bench::ResolveWorkloadCachedOrReport(specs[i]);
    if (!dataset.ok()) return 1;
    const std::string figure = "(" + std::string(1, char('a' + i % 26)) + ")";
    gdr::RunFigure5(**dataset, figure.c_str(), experiment_seed);
  }
  return 0;
}
