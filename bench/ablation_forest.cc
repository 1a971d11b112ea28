// Ablation study (DESIGN.md §5): GDR end-to-end quality as a function of
// the committee size k of the random-forest learner (the paper fixes
// k = 10, WEKA's default). Also sweeps the delegation accuracy bar.
//
// Flags: --workload=name:key=val,... (repeatable; default dataset1,
//         parameterized by the legacy flags below)
//        --records=N (default 10000) --seed=S --budget_pct=P (default 30)
#include <cstdio>

#include "bench/bench_util.h"
#include "cfd/violation_index.h"
#include "core/session.h"
#include "sim/experiment.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace gdr;
  const bench::Flags flags(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const auto specs = bench::WorkloadSpecsOrDefaults(
      flags, {"dataset1:records=" + flags.GetString("records", "10000") +
              ",seed=" + flags.GetString("seed", "42")});

  for (const std::string& spec : specs) {
    const auto resolved = bench::ResolveWorkloadCachedOrReport(spec);
    if (!resolved.ok()) return 1;
    const Dataset& dataset = **resolved;
    Table dirty = dataset.dirty;
    ViolationIndex probe(&dirty, &dataset.rules);
    const std::size_t budget = static_cast<std::size_t>(
        static_cast<double>(probe.DirtyRows().size()) *
        flags.GetDouble("budget_pct", 30.0) / 100.0);

    std::printf("== Forest-size ablation: %s, budget=%zu ==\n",
                dataset.name.c_str(), budget);
    std::printf("%6s %14s %10s %8s %8s\n", "k", "improvement%", "precision",
                "recall", "wall");
    for (int k : {1, 5, 10, 20}) {
      Stopwatch watch;
      // Route the committee size through the engine's learner options.
      Table working = dataset.dirty;
      UserOracle oracle(&dataset.clean);
      GdrOptions engine_options;
      engine_options.strategy = Strategy::kGdr;
      engine_options.feedback_budget = budget;
      engine_options.seed = seed;
      engine_options.learner.forest.num_trees = k;
      GdrSession session(&working, &dataset.rules, engine_options);
      if (!session.Start().ok() || !PumpSession(&session, &oracle).ok()) {
        continue;
      }
      const GdrEngine& engine = session.engine();
      QualityEvaluator evaluator(dataset.clean, &dataset.rules,
                                 engine.rule_weights());
      Table initial = dataset.dirty;
      ViolationIndex initial_index(&initial, &dataset.rules);
      const double initial_loss = evaluator.Loss(initial_index);
      auto accuracy =
          ComputeRepairAccuracy(dataset.dirty, working, dataset.clean);
      std::printf("%6d %14.1f %10.3f %8.3f %7.1fs\n", k,
                  evaluator.ImprovementPct(engine.index(), initial_loss),
                  accuracy->Precision(), accuracy->Recall(),
                  watch.ElapsedSeconds());
    }
  }
  return 0;
}
