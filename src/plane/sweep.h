#ifndef GDR_PLANE_SWEEP_H_
#define GDR_PLANE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/gdr.h"
#include "plane/sharded_repair.h"
#include "util/result.h"
#include "workload/workload_cache.h"

namespace gdr::plane {

/// The experiment grid: strategies × workloads × shard counts × thread
/// counts, every combination one cell. This is the evaluation shape the
/// deployment studies use — a method/dataset/configuration grid, not one
/// hand-picked run.
struct SweepConfig {
  /// Workload spec texts ("dataset1:records=2000,seed=42"). Each cell
  /// resolves its spec through the content-keyed WorkloadCache, so a
  /// workload pays generation + rule discovery once per sweep, not once
  /// per cell.
  std::vector<std::string> workloads;
  std::vector<Strategy> strategies;
  /// Row-range shard counts (ShardPlan::Split); 1 = unsharded.
  std::vector<std::size_t> shard_counts;
  /// Shard-pool sizes (0 = hardware concurrency): how many shards run at
  /// once. At shard_count 1 there is nothing to fan out and the thread
  /// count has no effect.
  std::vector<std::size_t> thread_counts;
  std::uint64_t seed = 42;
  int ns = 5;
  std::size_t sample_every = 50;
  std::size_t feedback_budget = GdrOptions::kUnlimitedBudget;
  /// For every (workload, strategy, shard_count) group, additionally run
  /// the first thread count with shards executing in reverse order and
  /// require the identical merged fingerprint (the execution-order half of
  /// the determinism gate; the thread-count half falls out of the grid).
  bool verify_execution_order = true;
  WorkloadCacheOptions cache;
};

/// One grid cell's record, everything BENCH_sweep.json needs.
struct SweepCell {
  std::string workload;       // canonical spec (the cache key)
  std::string workload_name;  // resolved display name
  std::string strategy;
  std::size_t shard_count = 1;
  std::size_t thread_count = 1;
  std::size_t rows = 0;

  double resolve_seconds = 0.0;  // workload resolution (cache-visible)
  bool cache_hit = false;        // memory or disk layer answered
  double wall_seconds = 0.0;     // sharded run end-to-end
  double max_shard_seconds = 0.0;  // slowest shard (the makespan floor)
  /// Load-imbalance skew: max_shard_seconds / wall_seconds. Near 1.0 means
  /// one straggler shard dominated the cell's wall clock (perfectly
  /// balanced K-shard runs on K idle cores approach 1/K); 0 when the cell
  /// recorded no wall time.
  double shard_skew = 0.0;

  std::size_t user_feedback = 0;
  double final_improvement_pct = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  std::int64_t remaining_violations = 0;

  std::string fingerprint;
  /// Intra-run merge self-check (ShardedRepairResult::merge_deterministic)
  /// AND, on group-leader cells, the reverse-execution replica agreeing.
  bool merge_deterministic = true;
  /// This cell's fingerprint equals its group's (workload, strategy,
  /// shard_count) baseline — i.e. thread count did not change the merged
  /// result. Trivially true for the baseline cell itself.
  bool fingerprint_consistent = true;

  /// Shared-pool saturation observability: completed-task delta during the
  /// cell and the queue depth sampled right after it (0 = drained).
  std::uint64_t pool_tasks_completed = 0;
  std::size_t pool_queue_depth = 0;
};

struct SweepReport {
  SweepConfig config;
  std::vector<SweepCell> cells;
  WorkloadCache::Counters cache;
  unsigned hardware_concurrency = 0;
  /// Every cell's merge_deterministic and fingerprint_consistent flag.
  bool determinism_ok = true;
  /// True when the grid resolves some workload more than once, i.e. the
  /// cache must record hits (the CI gate reads this together with
  /// cache.hits()).
  bool cache_hits_expected = false;
  double total_seconds = 0.0;
};

/// Runs the grid cell by cell (workload-major, so each workload is
/// resolved while its neighbors are still warm in the cache), reusing one
/// ThreadPool per distinct thread count across all cells.
Result<SweepReport> RunSweep(const SweepConfig& config);

/// Renders the report as the BENCH_sweep.json document (one top-level
/// object; see README for the reading guide).
std::string SweepReportToJson(const SweepReport& report);

}  // namespace gdr::plane

#endif  // GDR_PLANE_SWEEP_H_
