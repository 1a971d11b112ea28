#ifndef GDR_SIM_EXPERIMENT_H_
#define GDR_SIM_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/gdr.h"
#include "core/quality.h"
#include "sim/dataset.h"
#include "sim/oracle.h"
#include "util/result.h"

namespace gdr {

/// One sample of a quality-vs-effort curve.
struct CurvePoint {
  std::size_t feedback = 0;      // user-verified updates so far
  double improvement_pct = 0.0;  // y-axis of Figures 3/4
  double loss = 0.0;             // L(D) (Eq. 3) at this point
};

struct ExperimentConfig {
  Strategy strategy = Strategy::kGdr;
  /// User label budget F; unlimited runs until convergence/exhaustion.
  std::size_t feedback_budget = GdrOptions::kUnlimitedBudget;
  int ns = 5;
  std::uint64_t seed = 42;
  /// Curve granularity: a point is recorded every `sample_every` labels
  /// (plus the final state).
  std::size_t sample_every = 25;
};

struct ExperimentResult {
  std::string strategy_name;
  std::vector<CurvePoint> curve;
  GdrStats stats;
  RepairAccuracy accuracy;
  double initial_loss = 0.0;
  double final_loss = 0.0;
  double final_improvement_pct = 0.0;
  std::int64_t remaining_violations = 0;
  /// End-to-end wall-clock of the run (engine setup + interactive loop);
  /// per-phase breakdown is in stats.timings.
  double wall_seconds = 0.0;
};

/// Runs one strategy on a copy of `dataset.dirty` — a GdrSession pumped
/// against the ground-truth oracle — and records the quality curve (the
/// common skeleton of the Figure 3/4/5 experiments). The dataset itself is
/// not mutated.
Result<ExperimentResult> RunStrategyExperiment(const Dataset& dataset,
                                               const ExperimentConfig& config);

/// Runs the Automatic-Heuristic baseline (BatchRepair) on a copy of the
/// dirty instance; the curve is the single constant level the paper plots.
Result<ExperimentResult> RunHeuristicExperiment(const Dataset& dataset);

/// Canonical digest of everything deterministic in a result: strategy,
/// stats counters, accuracy, initial/final loss and curve points (doubles
/// by bit pattern), remaining violations. Timings and wall-clock are
/// excluded. Equal fingerprints across two runs mean bit-identical repair
/// outcomes.
std::string FingerprintExperimentResult(const ExperimentResult& result);

/// Renders a curve as "feedback_pct improvement_pct" rows, with feedback
/// expressed as a percentage of `denominator` (Figure 3 normalizes by the
/// total feedback the strategy needed; Figure 4 by the initial dirty-tuple
/// count). Used by the bench harnesses.
std::string FormatCurve(const std::vector<CurvePoint>& curve,
                        double denominator);

}  // namespace gdr

#endif  // GDR_SIM_EXPERIMENT_H_
