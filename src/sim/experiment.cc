#include "sim/experiment.h"

#include <bit>
#include <cstdio>
#include <sstream>

#include "core/session.h"
#include "repair/heuristic_repair.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace gdr {

namespace {

// Doubles travel through the fingerprint by bit pattern: the contract is
// "the same computation", not "approximately the same number".
void AppendDoubleBits(std::ostringstream* out, double value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  *out << buf;
}

}  // namespace

Result<ExperimentResult> RunStrategyExperiment(
    const Dataset& dataset, const ExperimentConfig& config) {
  Table working = dataset.dirty;  // repaired in place; dataset untouched

  UserOracleOptions oracle_options;
  oracle_options.seed = config.seed ^ 0xA5A5A5A5ULL;
  UserOracle oracle(&dataset.clean, oracle_options);

  GdrOptions options;
  options.strategy = config.strategy;
  options.feedback_budget = config.feedback_budget;
  options.ns = config.ns;
  options.seed = config.seed;

  const Stopwatch wall_watch;
  GdrSession session(&working, &dataset.rules, options);
  GDR_RETURN_NOT_OK(session.Start());
  const GdrEngine& engine = session.engine();

  // The evaluator shares the engine's rule weights so that measured loss
  // and the engine's internal VOI estimates refer to the same Eq. 3.
  QualityEvaluator evaluator(dataset.clean, &dataset.rules,
                             engine.rule_weights());
  ExperimentResult result;
  result.strategy_name = StrategyName(config.strategy);
  result.initial_loss = evaluator.Loss(engine.index());

  const std::size_t sample_every = std::max<std::size_t>(
      1, config.sample_every);
  result.curve.push_back({0, 0.0, result.initial_loss});
  std::size_t last_sampled = 0;

  const GdrEngine::ProgressCallback record_point =
      [&](const GdrEngine& e, std::size_t feedback) {
        if (feedback < last_sampled + sample_every) return;
        last_sampled = feedback;
        const double loss = evaluator.Loss(e.index());
        result.curve.push_back(
            {feedback,
             evaluator.ImprovementPct(e.index(), result.initial_loss), loss});
      };
  session.SetProgressCallback(record_point);
  GDR_RETURN_NOT_OK(PumpSession(&session, &oracle));

  result.wall_seconds = wall_watch.ElapsedSeconds();
  result.stats = engine.stats();
  result.final_loss = evaluator.Loss(engine.index());
  result.final_improvement_pct =
      evaluator.ImprovementPct(engine.index(), result.initial_loss);
  result.curve.push_back({result.stats.user_feedback,
                          result.final_improvement_pct, result.final_loss});
  result.remaining_violations = engine.index().TotalViolations();
  GDR_ASSIGN_OR_RETURN(
      result.accuracy,
      ComputeRepairAccuracy(dataset.dirty, working, dataset.clean));
  return result;
}

Result<ExperimentResult> RunHeuristicExperiment(const Dataset& dataset) {
  Table working = dataset.dirty;
  const Stopwatch wall_watch;
  ViolationIndex index(&working, &dataset.rules);
  const std::vector<double> weights = ContextRuleWeights(index);
  QualityEvaluator evaluator(dataset.clean, &dataset.rules, weights);

  ExperimentResult result;
  result.strategy_name = "Automatic-Heuristic";
  result.initial_loss = evaluator.Loss(index);
  result.curve.push_back({0, 0.0, result.initial_loss});

  const HeuristicRepairStats stats = RunBatchRepair(&index, &working);
  result.wall_seconds = wall_watch.ElapsedSeconds();
  result.final_loss = evaluator.Loss(index);
  result.final_improvement_pct =
      evaluator.ImprovementPct(index, result.initial_loss);
  result.curve.push_back({0, result.final_improvement_pct,
                          result.final_loss});
  result.remaining_violations = stats.remaining_violations;
  GDR_ASSIGN_OR_RETURN(
      result.accuracy,
      ComputeRepairAccuracy(dataset.dirty, working, dataset.clean));
  return result;
}

std::string FingerprintExperimentResult(const ExperimentResult& result) {
  std::ostringstream out;
  out << "strategy " << result.strategy_name << '\n';
  const GdrStats& s = result.stats;
  out << "stats " << s.initial_dirty << ' ' << s.user_feedback << ' '
      << s.user_confirms << ' ' << s.user_rejects << ' ' << s.user_retains
      << ' ' << s.user_suggested_values << ' ' << s.learner_decisions << ' '
      << s.learner_confirms << ' ' << s.forced_repairs << ' '
      << s.outer_iterations << ' ' << s.appended_rows << ' '
      << s.admitted_dirty << '\n';
  out << "accuracy " << result.accuracy.updated_cells << ' '
      << result.accuracy.correctly_updated_cells << ' '
      << result.accuracy.initially_incorrect_cells << '\n';
  out << "loss ";
  AppendDoubleBits(&out, result.initial_loss);
  out << ' ';
  AppendDoubleBits(&out, result.final_loss);
  out << ' ';
  AppendDoubleBits(&out, result.final_improvement_pct);
  out << '\n';
  out << "violations " << result.remaining_violations << '\n';
  out << "curve " << result.curve.size() << '\n';
  for (const CurvePoint& point : result.curve) {
    out << point.feedback << ' ';
    AppendDoubleBits(&out, point.improvement_pct);
    out << ' ';
    AppendDoubleBits(&out, point.loss);
    out << '\n';
  }
  return Fnv1a64Hex(out.str());
}

std::string FormatCurve(const std::vector<CurvePoint>& curve,
                        double denominator) {
  std::ostringstream out;
  for (const CurvePoint& point : curve) {
    const double pct =
        denominator <= 0.0
            ? 0.0
            : 100.0 * static_cast<double>(point.feedback) / denominator;
    out << pct << "\t" << point.improvement_pct << "\n";
  }
  return out.str();
}

}  // namespace gdr
