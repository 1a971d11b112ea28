// gdr_perfbench: whole-session repair benchmark driver.
//
//   gdr_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--scratch=DIR]
//
// Workloads: gdr-hospital-4k, nolearn-hospital-20k, service-mixed. With
// --trace=0 the result line carries the end-to-end metrics; with --trace=1
// it carries the per-layer metrics of the layers the workload loads (run.py
// completes the set from BENCHMARK.json) and the spans are written to
// DIR/trace-NAME-seedN.jsonl (DIR defaults to .bench_out; the service
// workload also keeps its csv inputs and spill files there while it runs).
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.h"

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "%s\nusage: gdr_perfbench --workload=gdr-hospital-4k|"
               "nolearn-hospital-20k|service-mixed --seed=N --seconds=S "
               "--trace=0|1 [--scratch=DIR]\n",
               message.c_str());
  std::exit(2);
}

// Accepts both --key=value and --key value.
std::string Flag(int argc, char** argv, std::string_view key,
                 const char* fallback) {
  const std::string flag = "--" + std::string(key);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(flag + "=", 0) == 0) {
      return std::string(arg.substr(flag.size() + 1));
    }
  }
  if (fallback == nullptr) Usage("missing " + flag);
  return fallback;
}

int Run(int argc, char** argv) {
  RunOptions options;
  options.workload = Flag(argc, argv, "workload", nullptr);
  const gdr::Result<std::uint64_t> seed =
      gdr::ParseUint64(Flag(argc, argv, "seed", nullptr), "--seed");
  const gdr::Result<double> seconds =
      gdr::ParseDouble(Flag(argc, argv, "seconds", nullptr), "--seconds");
  if (!seed.ok()) Usage(seed.status().ToString());
  if (!seconds.ok() || !(*seconds >= 0.0)) Usage("bad --seconds");
  options.seed = *seed;
  options.seconds = *seconds;
  const std::string trace = Flag(argc, argv, "trace", "0");
  if (trace != "0" && trace != "1") Usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  options.scratch_dir = Flag(argc, argv, "scratch", ".bench_out");
  options.trace_path = options.scratch_dir + "/trace-" + options.workload +
                       "-seed" + std::to_string(options.seed) + ".jsonl";
  if (options.workload != "gdr-hospital-4k" &&
      options.workload != "nolearn-hospital-20k" &&
      options.workload != "service-mixed") {
    Usage("unknown workload '" + options.workload + "'");
  }
  ::mkdir(options.scratch_dir.c_str(), 0755);

  RunResult result = options.workload == "service-mixed"
                         ? RunService(options)
                         : RunInProcess(options);
  if (options.trace && !result.trace.WriteJsonLines(options.trace_path)) {
    result.failures.push_back("cannot write " + options.trace_path);
  }

  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.failures.push_back("metric not finite: " + m.name);
    }
  }

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  if (options.trace) {
    std::printf("trace: %zu spans written to %s\n",
                result.trace.spans().size(), options.trace_path.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.failures.empty() && result.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
