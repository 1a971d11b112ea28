// Hospital scenario: clean the emergency-room feed of Dataset 1 (the
// paper's motivating workload) with the full GDR strategy, and report what
// a data steward would want to know: where the errors came from, how much
// effort the cleaning took, and how accurate the repairs are.
//
// Build & run:  ./build/examples/hospital_cleaning [--records=N]
//               [--workload=SPEC]   (default: dataset1:records=N,seed=2024;
//                any registry workload works, e.g. csv:clean=...,rules=...)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/quality.h"
#include "core/session.h"
#include "sim/oracle.h"
#include "util/strings.h"
#include "workload/registry.h"

using namespace gdr;

int main(int argc, char** argv) {
  std::size_t records = 8000;
  std::string spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--records=", 0) == 0) {
      const auto parsed = ParseUint64(arg.substr(10), "--records");
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      records = static_cast<std::size_t>(*parsed);
    } else if (arg.rfind("--workload=", 0) == 0) {
      spec = arg.substr(std::string("--workload=").size());
    }
  }
  if (spec.empty()) {
    spec = "dataset1:records=" + std::to_string(records) + ",seed=2024";
  }

  auto dataset = ResolveWorkloadOrReport(spec);
  if (!dataset.ok()) return 1;
  std::printf("Workload %s: %zu records, %zu corrupted, %zu rules\n",
              dataset->name.c_str(), dataset->dirty.num_rows(),
              dataset->corrupted_tuples, dataset->rules.size());

  Table working = dataset->dirty;
  UserOracle oracle(&dataset->clean);
  GdrOptions engine_options;
  engine_options.strategy = Strategy::kGdr;
  // The steward affords reviewing one suggestion per ~8 records.
  engine_options.feedback_budget =
      std::max<std::size_t>(1, dataset->dirty.num_rows() / 8);
  GdrSession session(&working, &dataset->rules, engine_options);
  if (!session.Start().ok()) return 1;
  const GdrEngine& engine = session.engine();

  QualityEvaluator evaluator(dataset->clean, &dataset->rules,
                             engine.rule_weights());
  const double initial_loss = evaluator.Loss(engine.index());
  std::printf("Initially dirty tuples: %zu; candidate updates: %zu\n\n",
              engine.stats().initial_dirty, engine.pool().size());

  std::size_t next_report = 0;
  session.SetProgressCallback([&](const GdrEngine& e, std::size_t feedback) {
    if (feedback < next_report) return;
    next_report = feedback + engine_options.feedback_budget / 5;
    std::printf("  after %5zu answers: %5.1f%% of quality loss "
                "recovered, %zu dirty tuples left\n",
                feedback, evaluator.ImprovementPct(e.index(), initial_loss),
                e.consistency().dirty_count());
  });
  if (!PumpSession(&session, &oracle).ok()) return 1;

  const GdrStats& stats = engine.stats();
  std::printf("\nSteward effort: %zu answers "
              "(%zu confirm / %zu reject / %zu retain)\n",
              stats.user_feedback, stats.user_confirms, stats.user_rejects,
              stats.user_retains);
  std::printf("Learner decisions applied automatically: %zu "
              "(%zu of them confirms)\n",
              stats.learner_decisions, stats.learner_confirms);
  std::printf("Forced (entailed) repairs: %zu\n", stats.forced_repairs);

  auto accuracy =
      ComputeRepairAccuracy(dataset->dirty, working, dataset->clean);
  if (accuracy.ok()) {
    std::printf("\nRepair accuracy: precision %.3f, recall %.3f "
                "(%zu of %zu wrong cells fixed)\n",
                accuracy->Precision(), accuracy->Recall(),
                accuracy->correctly_updated_cells,
                accuracy->initially_incorrect_cells);
  }
  std::printf("Quality improvement: %.1f%%; remaining violations: %lld\n",
              evaluator.ImprovementPct(engine.index(), initial_loss),
              static_cast<long long>(engine.index().TotalViolations()));

  // Where were the residual problems? Summarize dirty tuples per city
  // (skipped for workloads without a City attribute).
  const AttrId city = working.schema().FindAttr("City");
  if (city != kInvalidAttrId) {
    std::map<std::string, int> dirty_by_city;
    for (RowId row : engine.consistency().DirtyRows()) {
      dirty_by_city[working.at(row, city)]++;
    }
    std::printf("\nResidual dirty tuples by city (top 5):\n");
    int shown = 0;
    for (const auto& [name, count] : dirty_by_city) {
      if (shown++ >= 5) break;
      std::printf("  %-20s %d\n", name.c_str(), count);
    }
  }
  return 0;
}
