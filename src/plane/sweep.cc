#include "plane/sweep.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gdr::plane {

namespace {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string GroupKey(const std::string& canonical, const std::string& strategy,
                     std::size_t shard_count) {
  return canonical + '\x1f' + strategy + '\x1f' + std::to_string(shard_count);
}

}  // namespace

Result<SweepReport> RunSweep(const SweepConfig& config) {
  if (config.workloads.empty() || config.strategies.empty() ||
      config.shard_counts.empty() || config.thread_counts.empty()) {
    return Status::InvalidArgument(
        "sweep grid needs at least one workload, strategy, shard count, and "
        "thread count");
  }
  for (const std::size_t shards : config.shard_counts) {
    if (shards == 0) {
      return Status::InvalidArgument("sweep shard counts must be >= 1");
    }
  }

  const Stopwatch total_watch;
  SweepReport report;
  report.config = config;
  report.hardware_concurrency = std::thread::hardware_concurrency();

  WorkloadCache cache(config.cache);

  // One pool per distinct resolved thread count, shared by every cell that
  // runs at that width — the sweep is also a soak test of pool reuse.
  std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  auto pool_for = [&pools](std::size_t threads) -> ThreadPool* {
    if (threads <= 1) return nullptr;
    auto& slot = pools[threads];
    if (slot == nullptr) slot = std::make_unique<ThreadPool>(threads);
    return slot.get();
  };

  std::map<std::string, std::string> group_fingerprint;  // group -> baseline
  std::set<std::string> seen_canonicals;
  std::size_t resolutions = 0;

  for (const std::string& workload : config.workloads) {
    GDR_ASSIGN_OR_RETURN(const WorkloadSpec spec,
                         WorkloadSpec::Parse(workload));
    const std::string canonical = spec.Canonical();
    seen_canonicals.insert(canonical);
    for (const Strategy strategy : config.strategies) {
      const std::string strategy_name = StrategyName(strategy);
      for (const std::size_t shard_count : config.shard_counts) {
        const std::string group =
            GroupKey(canonical, strategy_name, shard_count);
        bool group_leader = !group_fingerprint.contains(group);
        for (const std::size_t requested_threads : config.thread_counts) {
          const std::size_t threads =
              ThreadPool::ResolveThreadCount(requested_threads);

          SweepCell cell;
          cell.workload = canonical;
          cell.strategy = strategy_name;
          cell.shard_count = shard_count;
          cell.thread_count = threads;

          // Resolve through the cache — the first cell of a workload pays
          // generation + discovery; every later cell hits.
          const std::size_t hits_before = cache.counters().hits();
          const Stopwatch resolve_watch;
          GDR_ASSIGN_OR_RETURN(
              const std::shared_ptr<const Dataset> dataset,
              cache.Resolve(spec));
          cell.resolve_seconds = resolve_watch.ElapsedSeconds();
          cell.cache_hit = cache.counters().hits() > hits_before;
          ++resolutions;
          cell.workload_name = dataset->name;
          cell.rows = dataset->dirty.num_rows();

          ShardedRepairConfig run;
          run.shard_count = shard_count;
          run.pool = pool_for(threads);
          run.experiment.strategy = strategy;
          run.experiment.seed = config.seed;
          run.experiment.ns = config.ns;
          run.experiment.sample_every = config.sample_every;
          run.experiment.feedback_budget = config.feedback_budget;

          const std::uint64_t completed_before =
              run.pool != nullptr ? run.pool->tasks_completed() : 0;
          GDR_ASSIGN_OR_RETURN(const ShardedRepairResult outcome,
                               RunShardedRepair(*dataset, run));
          if (run.pool != nullptr) {
            cell.pool_tasks_completed =
                run.pool->tasks_completed() - completed_before;
            cell.pool_queue_depth = run.pool->queue_depth();
          }

          cell.wall_seconds = outcome.wall_seconds;
          for (const ExperimentResult& shard : outcome.shards) {
            cell.max_shard_seconds =
                std::max(cell.max_shard_seconds, shard.wall_seconds);
          }
          cell.shard_skew = cell.wall_seconds > 0.0
                                ? cell.max_shard_seconds / cell.wall_seconds
                                : 0.0;
          cell.user_feedback = outcome.merged.stats.user_feedback;
          cell.final_improvement_pct = outcome.merged.final_improvement_pct;
          cell.precision = outcome.merged.accuracy.Precision();
          cell.recall = outcome.merged.accuracy.Recall();
          cell.remaining_violations = outcome.merged.remaining_violations;
          cell.fingerprint = outcome.fingerprint;
          cell.merge_deterministic = outcome.merge_deterministic;

          if (group_leader) {
            group_fingerprint[group] = outcome.fingerprint;
            // The execution-order probe: rerun the leader with shards
            // submitted in reverse; the slot-collected merge must not
            // notice. Once per group, and only where order exists.
            if (config.verify_execution_order && shard_count > 1) {
              ShardedRepairConfig reversed = run;
              reversed.reverse_execution = true;
              GDR_ASSIGN_OR_RETURN(const ShardedRepairResult probe,
                                   RunShardedRepair(*dataset, reversed));
              cell.merge_deterministic =
                  cell.merge_deterministic &&
                  probe.fingerprint == outcome.fingerprint;
            }
            group_leader = false;
          }
          cell.fingerprint_consistent =
              cell.fingerprint == group_fingerprint[group];

          report.determinism_ok = report.determinism_ok &&
                                  cell.merge_deterministic &&
                                  cell.fingerprint_consistent;
          report.cells.push_back(std::move(cell));
        }
      }
    }
  }

  report.cache = cache.counters();
  report.cache_hits_expected = resolutions > seen_canonicals.size();
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

std::string SweepReportToJson(const SweepReport& report) {
  std::ostringstream out;
  out.precision(17);
  out << "{\n";
  out << "  \"bench\": \"sweep\",\n";
  out << "  \"hardware_concurrency\": " << report.hardware_concurrency
      << ",\n";
  out << "  \"seed\": " << report.config.seed << ",\n";
  out << "  \"ns\": " << report.config.ns << ",\n";
  out << "  \"sample_every\": " << report.config.sample_every << ",\n";

  out << "  \"workloads\": [";
  for (std::size_t i = 0; i < report.config.workloads.size(); ++i) {
    out << (i ? ", " : "") << '"' << JsonEscape(report.config.workloads[i])
        << '"';
  }
  out << "],\n";
  out << "  \"strategies\": [";
  for (std::size_t i = 0; i < report.config.strategies.size(); ++i) {
    out << (i ? ", " : "") << '"'
        << JsonEscape(StrategyName(report.config.strategies[i])) << '"';
  }
  out << "],\n";
  out << "  \"shard_counts\": [";
  for (std::size_t i = 0; i < report.config.shard_counts.size(); ++i) {
    out << (i ? ", " : "") << report.config.shard_counts[i];
  }
  out << "],\n";
  out << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < report.config.thread_counts.size(); ++i) {
    out << (i ? ", " : "") << report.config.thread_counts[i];
  }
  out << "],\n";

  out << "  \"cache\": {\n";
  out << "    \"memory_hits\": " << report.cache.memory_hits << ",\n";
  out << "    \"disk_hits\": " << report.cache.disk_hits << ",\n";
  out << "    \"misses\": " << report.cache.misses << ",\n";
  out << "    \"collisions_resolved\": " << report.cache.collisions_resolved
      << ",\n";
  out << "    \"hits_expected\": "
      << (report.cache_hits_expected ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"determinism_ok\": "
      << (report.determinism_ok ? "true" : "false") << ",\n";
  out << "  \"total_seconds\": " << report.total_seconds << ",\n";

  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const SweepCell& cell = report.cells[i];
    out << "    {\n";
    out << "      \"workload\": \"" << JsonEscape(cell.workload) << "\",\n";
    out << "      \"workload_name\": \"" << JsonEscape(cell.workload_name)
        << "\",\n";
    out << "      \"strategy\": \"" << JsonEscape(cell.strategy) << "\",\n";
    out << "      \"shard_count\": " << cell.shard_count << ",\n";
    out << "      \"thread_count\": " << cell.thread_count << ",\n";
    out << "      \"rows\": " << cell.rows << ",\n";
    out << "      \"resolve_seconds\": " << cell.resolve_seconds << ",\n";
    out << "      \"cache_hit\": " << (cell.cache_hit ? "true" : "false")
        << ",\n";
    out << "      \"wall_seconds\": " << cell.wall_seconds << ",\n";
    out << "      \"max_shard_seconds\": " << cell.max_shard_seconds << ",\n";
    out << "      \"shard_skew\": " << cell.shard_skew << ",\n";
    out << "      \"user_feedback\": " << cell.user_feedback << ",\n";
    out << "      \"final_improvement_pct\": " << cell.final_improvement_pct
        << ",\n";
    out << "      \"precision\": " << cell.precision << ",\n";
    out << "      \"recall\": " << cell.recall << ",\n";
    out << "      \"remaining_violations\": " << cell.remaining_violations
        << ",\n";
    out << "      \"fingerprint\": \"" << JsonEscape(cell.fingerprint)
        << "\",\n";
    out << "      \"merge_deterministic\": "
        << (cell.merge_deterministic ? "true" : "false") << ",\n";
    out << "      \"fingerprint_consistent\": "
        << (cell.fingerprint_consistent ? "true" : "false") << ",\n";
    out << "      \"pool_tasks_completed\": " << cell.pool_tasks_completed
        << ",\n";
    out << "      \"pool_queue_depth\": " << cell.pool_queue_depth << "\n";
    out << "    }" << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace gdr::plane
