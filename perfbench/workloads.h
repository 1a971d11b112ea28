#ifndef GDR_PERFBENCH_WORKLOADS_H_
#define GDR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  /// Seeds every generated input: the row orders of the workload's content
  /// (inputs.h) and the session RNG.
  std::uint64_t seed = 1;
  /// Length of the timed loop; whole sessions run until it has elapsed.
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_path;
  /// Scratch directory inside the checkout (service spill files).
  std::string scratch_dir;
};

struct RunResult {
  /// Output checks that failed; the run is correct when this is empty.
  std::vector<std::string> failures;
  /// Operations issued into the program, and those that returned an error.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable summary lines (sample counts, outcome tallies).
  std::vector<std::string> notes;
  Trace trace{false};
};

/// gdr-hospital-4k and nolearn-hospital-20k: one GdrSession at a time,
/// driven in process by the ground-truth UserOracle.
RunResult RunInProcess(const RunOptions& options);

/// service-mixed: 16 sessions per pass through server::HandleCommand on a
/// SessionManager backend, driven by closed-loop client threads.
RunResult RunService(const RunOptions& options);

}  // namespace perfbench

#endif  // GDR_PERFBENCH_WORKLOADS_H_
