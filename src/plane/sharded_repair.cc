#include "plane/sharded_repair.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "util/stopwatch.h"
#include "util/strings.h"

namespace gdr::plane {

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

ExperimentResult MergeShardResults(
    const std::vector<ExperimentResult>& shards) {
  if (shards.empty()) return ExperimentResult{};
  if (shards.size() == 1) return shards.front();

  ExperimentResult merged;
  merged.strategy_name = shards.front().strategy_name;
  for (const ExperimentResult& shard : shards) {
    GdrStats& s = merged.stats;
    const GdrStats& in = shard.stats;
    s.initial_dirty += in.initial_dirty;
    s.user_feedback += in.user_feedback;
    s.user_confirms += in.user_confirms;
    s.user_rejects += in.user_rejects;
    s.user_retains += in.user_retains;
    s.user_suggested_values += in.user_suggested_values;
    s.learner_decisions += in.learner_decisions;
    s.learner_confirms += in.learner_confirms;
    s.forced_repairs += in.forced_repairs;
    s.outer_iterations += in.outer_iterations;
    s.appended_rows += in.appended_rows;
    s.admitted_dirty += in.admitted_dirty;
    s.timings.init_seconds += in.timings.init_seconds;
    s.timings.ranking_seconds += in.timings.ranking_seconds;
    s.timings.session_seconds += in.timings.session_seconds;
    s.timings.learner_sweep_seconds += in.timings.learner_sweep_seconds;
    s.timings.total_seconds += in.timings.total_seconds;

    merged.accuracy.updated_cells += shard.accuracy.updated_cells;
    merged.accuracy.correctly_updated_cells +=
        shard.accuracy.correctly_updated_cells;
    merged.accuracy.initially_incorrect_cells +=
        shard.accuracy.initially_incorrect_cells;

    merged.initial_loss += shard.initial_loss;
    merged.final_loss += shard.final_loss;
    merged.remaining_violations += shard.remaining_violations;
    merged.wall_seconds = std::max(merged.wall_seconds, shard.wall_seconds);
  }
  merged.final_improvement_pct =
      merged.initial_loss <= 0.0
          ? 100.0
          : 100.0 * (merged.initial_loss - merged.final_loss) /
                merged.initial_loss;

  // Consolidated curve: replay every shard's sample points in a canonical
  // order — ascending per-shard feedback, ties broken by (shard index,
  // point index) — tracking each shard's latest (feedback, loss) and
  // emitting the global totals after each event. The order is a pure
  // function of the index-ordered inputs, so however the shards actually
  // interleaved in time, the merged curve is the same.
  struct Event {
    std::size_t feedback;
    std::size_t shard;
    std::size_t idx;
  };
  std::vector<Event> events;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& curve = shards[s].curve;
    // Point 0 is the initial state; the merged initial point is built from
    // the summed initial losses below.
    for (std::size_t i = 1; i < curve.size(); ++i) {
      events.push_back(Event{curve[i].feedback, s, i});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.feedback != b.feedback) return a.feedback < b.feedback;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });

  std::vector<std::size_t> shard_feedback(shards.size(), 0);
  std::vector<double> shard_loss(shards.size());
  double total_loss = 0.0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shard_loss[s] = shards[s].initial_loss;
    total_loss += shard_loss[s];
  }
  const double initial_total = merged.initial_loss;
  auto improvement = [initial_total](double loss) {
    return initial_total <= 0.0
               ? 100.0
               : 100.0 * (initial_total - loss) / initial_total;
  };
  merged.curve.push_back({0, 0.0, initial_total});
  std::size_t total_feedback = 0;
  for (const Event& event : events) {
    const CurvePoint& point = shards[event.shard].curve[event.idx];
    total_feedback += point.feedback - shard_feedback[event.shard];
    shard_feedback[event.shard] = point.feedback;
    total_loss += point.loss - shard_loss[event.shard];
    shard_loss[event.shard] = point.loss;
    merged.curve.push_back(
        {total_feedback, improvement(total_loss), total_loss});
  }
  return merged;
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

Result<ShardedRepairResult> RunShardedRepair(
    const Dataset& dataset, const ShardedRepairConfig& config) {
  const Stopwatch total_watch;
  GDR_ASSIGN_OR_RETURN(
      const ShardPlan plan,
      ShardPlan::Split(dataset.dirty.num_rows(), config.shard_count));

  // Shard slices are materialized serially: interning order inside each
  // slice is a function of the slice alone, but keeping this phase
  // single-threaded keeps the plan → dataset step trivially reproducible.
  std::vector<Dataset> slices;
  slices.reserve(plan.num_shards());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    GDR_ASSIGN_OR_RETURN(
        Dataset slice,
        MakeShardDataset(dataset, plan.range(s),
                         dataset.name + "#shard" + std::to_string(s)));
    slices.push_back(std::move(slice));
  }

  const std::size_t n = plan.num_shards();
  ShardedRepairResult result;
  result.shards.resize(n);
  std::vector<Status> statuses(n, Status::OK());

  auto run_shard = [&](std::size_t shard) {
    ExperimentConfig experiment = config.experiment;
    experiment.seed = config.experiment.seed + shard;
    auto outcome = RunStrategyExperiment(slices[shard], experiment);
    if (outcome.ok()) {
      result.shards[shard] = *std::move(outcome);
    } else {
      statuses[shard] = outcome.status();
    }
  };

  auto shard_for_index = [&](std::size_t i) {
    return config.reverse_execution ? n - 1 - i : i;
  };
  if (config.pool != nullptr && n > 1) {
    config.pool->ParallelFor(
        n, [&](std::size_t i) { run_shard(shard_for_index(i)); });
  } else {
    for (std::size_t i = 0; i < n; ++i) run_shard(shard_for_index(i));
  }
  for (const Status& status : statuses) GDR_RETURN_NOT_OK(status);

  result.merged = MergeShardResults(result.shards);
  result.fingerprint = FingerprintExperimentResult(result.merged);
  // Merge self-check: a second pass over a copy must reproduce the digest.
  const std::vector<ExperimentResult> copy = result.shards;
  result.merge_deterministic =
      FingerprintExperimentResult(MergeShardResults(copy)) ==
      result.fingerprint;
  result.wall_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace gdr::plane
