// Experiment sweep over the sharded repair data plane: a strategy ×
// workload × shard-count × thread-count grid, every cell one sharded
// repair run, all resolved through the content-keyed workload cache.
//
// Three portable signals come out (absolute timings are hardware-bound):
//   determinism   every cell's merged fingerprint is identical across
//                 thread counts and shard execution orders — exit 2 when
//                 any merge_deterministic/fingerprint_consistent flag is
//                 false.
//   cache         a grid that revisits a workload must record cache hits —
//                 exit 3 when hits were expected but none happened.
//   scaling       per-cell wall time vs shard/thread count, plus pool
//                 queue-depth/completed-task counters.
//
// Emits BENCH_sweep.json (see README for the reading guide).
//
// Flags: --workload=SPEC (repeatable; default two small built-ins)
//        --strategies=CSV of GDR|GDR-S-Learning|GDR-Learning|Random
//        --shards=CSV (default 1,2,4) --threads=CSV (default 1,2)
//          (--threads is the shard-pool width; it has no effect at 1 shard)
//        --seed=S (default 42) --ns=N (default 5)
//        --sample-every=N (default 50) --budget=N (default unlimited)
//        --cache-dir=PATH (default in-memory only)
//        --no-order-probe (skip the reverse-execution replicas)
//        --out=PATH (default BENCH_sweep.json)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "plane/sweep.h"
#include "util/strings.h"

namespace gdr {
namespace {

// Parses "1,2,4" into sizes; exits with usage code 2 on garbage, matching
// the checked numeric flags in bench::Flags.
std::vector<std::size_t> ParseSizeList(const std::string& text,
                                       const char* flag) {
  std::vector<std::size_t> out;
  for (const std::string& token : SplitString(text, ',')) {
    const Result<std::uint64_t> parsed = ParseUint64(TrimWhitespace(token), flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      std::exit(2);
    }
    out.push_back(static_cast<std::size_t>(*parsed));
  }
  return out;
}

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);

  plane::SweepConfig config;
  config.workloads = bench::WorkloadSpecsOrDefaults(
      flags, {"dataset1:records=2000,seed=42", "dataset2:records=2000,seed=42"});
  for (const std::string& name :
       SplitString(flags.GetString("strategies", "GDR,GDR-S-Learning"), ',')) {
    const Result<Strategy> strategy = StrategyFromName(TrimWhitespace(name));
    if (!strategy.ok()) {
      std::fprintf(stderr, "--strategies: %s\n",
                   strategy.status().ToString().c_str());
      return 2;
    }
    config.strategies.push_back(*strategy);
  }
  config.shard_counts = ParseSizeList(flags.GetString("shards", "1,2,4"),
                                      "--shards");
  config.thread_counts = ParseSizeList(flags.GetString("threads", "1,2"),
                                       "--threads");
  config.seed = flags.GetUint("seed", 42);
  config.ns = static_cast<int>(flags.GetInt("ns", 5));
  config.sample_every =
      static_cast<std::size_t>(flags.GetInt("sample-every", 50));
  config.feedback_budget = static_cast<std::size_t>(
      flags.GetInt("budget",
                   static_cast<std::int64_t>(GdrOptions::kUnlimitedBudget)));
  config.verify_execution_order =
      flags.GetString("no-order-probe", "").empty();
  config.cache.cache_dir = flags.GetString("cache-dir", "");
  const std::string out_path = flags.GetString("out", "BENCH_sweep.json");

  auto report_or = plane::RunSweep(config);
  if (!report_or.ok()) {
    std::fprintf(stderr, "sweep: %s\n",
                 report_or.status().ToString().c_str());
    return 1;
  }
  const plane::SweepReport report = *std::move(report_or);

  std::printf("bench_sweep: %zu cells (%zu workloads x %zu strategies x %zu "
              "shard counts x %zu thread counts), hw=%u\n",
              report.cells.size(), config.workloads.size(),
              config.strategies.size(), config.shard_counts.size(),
              config.thread_counts.size(), report.hardware_concurrency);
  std::printf("%-28s %-16s %3s %3s %8s %8s %5s %5s %6s %5s\n", "workload",
              "strategy", "sh", "th", "resolve", "wall", "skew", "imp%",
              "fb", "flags");
  for (const plane::SweepCell& cell : report.cells) {
    std::printf(
        "%-28.28s %-16s %3zu %3zu %7.3fs %7.3fs %5.2f %5.1f %6zu %c%c%c\n",
        cell.workload_name.c_str(), cell.strategy.c_str(), cell.shard_count,
        cell.thread_count, cell.resolve_seconds, cell.wall_seconds,
        cell.shard_skew, cell.final_improvement_pct, cell.user_feedback,
        cell.cache_hit ? 'C' : '-', cell.merge_deterministic ? 'D' : '!',
        cell.fingerprint_consistent ? 'F' : '!');
  }
  std::printf("cache: %zu memory hits, %zu disk hits, %zu misses, %zu "
              "collisions resolved\n",
              report.cache.memory_hits, report.cache.disk_hits,
              report.cache.misses, report.cache.collisions_resolved);
  std::printf("total %.3fs\n", report.total_seconds);

  const std::string json = plane::SweepReportToJson(report);
  if (FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (!report.determinism_ok) {
    std::fprintf(stderr,
                 "FAIL: merged results differ across thread counts or shard "
                 "execution orders\n");
    return 2;
  }
  if (report.cache_hits_expected && report.cache.hits() == 0) {
    std::fprintf(stderr,
                 "FAIL: grid revisited workloads but the cache recorded no "
                 "hits\n");
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) { return gdr::Run(argc, argv); }
