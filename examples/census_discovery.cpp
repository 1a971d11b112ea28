// Census scenario: start from a dirty categorical dataset with *no* rules,
// discover conditional functional dependencies from the data itself (the
// Dataset 2 protocol: 5% support threshold, discovery on the dirty
// instance), inspect them, and then run guided repair against them.
//
// Build & run:  ./build/examples/census_discovery [--records=N]
//               [--workload=SPEC]   (default: dataset2:records=N,seed=7;
//                any registry workload works — discovery runs on whatever
//                dirty instance the workload resolves to)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cfd/violation_index.h"
#include "core/quality.h"
#include "core/session.h"
#include "sim/cfd_discovery.h"
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
    spec = "dataset2:records=" + std::to_string(records) + ",seed=7";
  }

  auto dataset = ResolveWorkloadOrReport(spec);
  if (!dataset.ok()) return 1;

  // The workload may already ship rules; run discovery here explicitly
  // to show the API and print what was found.
  std::vector<AttrId> attrs;
  for (std::size_t a = 0; a < dataset->dirty.num_attrs(); ++a) {
    attrs.push_back(static_cast<AttrId>(a));
  }
  CfdDiscoveryOptions discovery;
  discovery.min_support = 0.05;   // the paper's threshold
  discovery.min_confidence = 0.85;
  auto rules = DiscoverConstantCfds(dataset->dirty, attrs, discovery);
  if (!rules.ok()) return 1;

  std::printf("Discovered %zu constant CFDs from the dirty instance "
              "(support >= 5%%, confidence >= 85%%). First ten:\n",
              rules->size());
  for (std::size_t i = 0; i < rules->size() && i < 10; ++i) {
    std::printf("  %s\n",
                rules->rule(static_cast<RuleId>(i))
                    .ToString(rules->schema())
                    .c_str());
  }

  // Variable CFDs (approximate FDs) are discoverable too; print them for
  // inspection. The repair below sticks to the constant rules, matching
  // the paper's Dataset 2 protocol.
  auto fds = DiscoverVariableCfds(dataset->dirty, attrs, {});
  if (fds.ok()) {
    std::printf("\nVariable CFDs (g3 confidence >= 90%%):\n");
    for (std::size_t i = 0; i < fds->size() && i < 8; ++i) {
      std::printf("  %s\n",
                  fds->rule(static_cast<RuleId>(i))
                      .ToString(fds->schema())
                      .c_str());
    }
  }

  Table working = dataset->dirty;
  {
    ViolationIndex probe(&working, &*rules);
    std::printf("\nViolations against the discovered rules: %lld "
                "(%zu dirty tuples of %zu)\n",
                static_cast<long long>(probe.TotalViolations()),
                probe.DirtyRows().size(), working.num_rows());
  }

  UserOracle oracle(&dataset->clean);
  GdrOptions engine_options;
  engine_options.strategy = Strategy::kGdr;
  engine_options.feedback_budget =
      std::max<std::size_t>(1, dataset->dirty.num_rows() / 10);
  GdrSession session(&working, &*rules, engine_options);
  if (!session.Start().ok() || !PumpSession(&session, &oracle).ok()) return 1;
  const GdrEngine& engine = session.engine();

  QualityEvaluator evaluator(dataset->clean, &*rules, engine.rule_weights());
  Table initial = dataset->dirty;
  ViolationIndex initial_index(&initial, &*rules);
  const double initial_loss = evaluator.Loss(initial_index);

  auto accuracy =
      ComputeRepairAccuracy(dataset->dirty, working, dataset->clean);
  std::printf("\nAfter GDR with %zu user answers:\n",
              engine.stats().user_feedback);
  std::printf("  quality improvement:   %.1f%%\n",
              evaluator.ImprovementPct(engine.index(), initial_loss));
  std::printf("  repair precision:      %.3f\n", accuracy->Precision());
  std::printf("  repair recall:         %.3f\n", accuracy->Recall());
  std::printf("  remaining violations:  %lld\n",
              static_cast<long long>(engine.index().TotalViolations()));
  return 0;
}
