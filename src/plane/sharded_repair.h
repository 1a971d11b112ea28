#ifndef GDR_PLANE_SHARDED_REPAIR_H_
#define GDR_PLANE_SHARDED_REPAIR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "plane/shard_plan.h"
#include "sim/dataset.h"
#include "sim/experiment.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gdr::plane {

/// One sharded run: how to split, where to run, what each shard runs.
struct ShardedRepairConfig {
  /// Contiguous row-range shards (ShardPlan::Split); may exceed the row
  /// count, in which case the surplus shards are empty and contribute
  /// nothing to the merge.
  std::size_t shard_count = 1;
  /// Non-owning shard-level executor. When set, per-shard repair sessions
  /// run concurrently on this pool; nullptr runs shards serially on the
  /// caller. A single-shard run has nothing to fan out and never touches
  /// the pool.
  ThreadPool* pool = nullptr;
  /// Execute shards in reverse index order (a determinism probe for the
  /// differential tests: results are collected into index-addressed slots,
  /// so execution order must never change the merged output).
  bool reverse_execution = false;
  /// The per-shard experiment. Each shard s runs with seed
  /// `experiment.seed + s` (deterministic in the shard index, never in
  /// execution order) over its own Dataset slice.
  ExperimentConfig experiment;
};

struct ShardedRepairResult {
  /// Per-shard results, by shard index (empty shards included).
  std::vector<ExperimentResult> shards;
  /// The consolidated result (MergeShardResults of `shards`).
  ExperimentResult merged;
  /// FingerprintExperimentResult(merged): the value the differential
  /// suites pin across thread counts and execution orders.
  std::string fingerprint;
  /// Self-check: merging a copy of the per-shard results reproduced the
  /// identical fingerprint (guards against nondeterminism *inside* the
  /// merge; cross-run determinism is pinned by the tests and the sweep).
  bool merge_deterministic = true;
  /// End-to-end wall clock: shard materialization + runs + merge.
  double wall_seconds = 0.0;
};

/// Deterministically consolidates per-shard experiment results into one:
/// counters, accuracy, losses, and remaining violations are summed
/// (loss L(D) = Σ w_i·ql over per-shard indexes is additive across a row
/// partition's sub-instances); the quality curves are k-way merged into
/// one global feedback-vs-improvement curve by replaying every shard's
/// curve points in (feedback, shard index, point index) order and emitting
/// the global totals after each. A pure function of the index-ordered
/// input — shard execution order and thread counts can never reach it.
/// Merging a single shard returns it verbatim. `timings` are summed and
/// `wall_seconds` is the per-shard maximum (shards run concurrently);
/// both are excluded from the fingerprint.
ExperimentResult MergeShardResults(const std::vector<ExperimentResult>& shards);

/// Canonical digest of everything deterministic in a result: strategy,
/// stats counters, accuracy, initial/final loss and curve points (doubles
/// by bit pattern), remaining violations. Timings and wall-clock are
/// excluded. Equal fingerprints across two runs mean bit-identical merged
/// repair outcomes.
std::string FingerprintExperimentResult(const ExperimentResult& result);

/// Splits `dataset` by row range, runs one repair session per shard
/// (concurrently when `config.pool` is set), and merges. The dataset is
/// not mutated; shard slices are materialized per call.
Result<ShardedRepairResult> RunShardedRepair(const Dataset& dataset,
                                             const ShardedRepairConfig& config);

}  // namespace gdr::plane

#endif  // GDR_PLANE_SHARDED_REPAIR_H_
