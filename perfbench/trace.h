#ifndef GDR_PERFBENCH_TRACE_H_
#define GDR_PERFBENCH_TRACE_H_

// Bench-side tracing: spans recorded around every call the benchmark makes
// into a layer, kept in memory per thread and written out as JSON lines
// when the run ends. With tracing off, Begin/Close still time the call (the
// end-to-end latency samples come from the same calls) but nothing is
// recorded and no rusage syscall is made.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

/// Allocation counters of the calling thread, maintained by the counting
/// global operator new in alloc_count.cc.
struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCounts ThreadAllocCounts();

/// Monotonic nanoseconds (steady_clock).
std::uint64_t NowNs();

/// A reading of the calling thread's clock and counters at span start.
struct Mark {
  std::uint64_t ns = 0;
  AllocCounts allocs;
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;
};

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span in the same Trace (-1 for a root span); spans of one repair
/// session share `session`.
struct Span {
  const char* name = "";
  std::int32_t session = -1;
  std::int32_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;
  /// Span-specific payload: an item count, bytes written, rows appended.
  double value = 0.0;

  double seconds() const { return static_cast<double>(dur_ns) * 1e-9; }
};

/// A single thread's span buffer. Not thread-safe: each client thread owns
/// one, and the run merges them after joining.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  Mark Begin() const;

  /// Ends the interval opened by `begin`: returns its seconds and, when
  /// tracing, records it as a span.
  double Close(const Mark& begin, const char* name, int session,
               int parent = -1, double value = 0.0);

  /// Records a child span whose duration the program measured itself
  /// (a GdrTimings delta, a wrapped backend op). No-op when not tracing.
  void Attribute(const char* name, int session, int parent, double seconds,
                 double value = 0.0);

  /// Index of the most recently recorded span (-1 when none).
  int last() const { return static_cast<int>(spans_.size()) - 1; }

  /// Sets the payload of a recorded span once the reply reveals it.
  void SetValue(int span, double value) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].value = value;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const Trace& other);

  /// Totals over the spans whose name is one of `names`.
  struct Totals {
    double count = 0.0;
    double seconds = 0.0;
    double value = 0.0;
    double allocs = 0.0;
    double alloc_bytes = 0.0;
    double minor_faults = 0.0;
    double major_faults = 0.0;
  };
  Totals Sum(std::initializer_list<const char*> names) const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// A metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples; 0
/// for an empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// num / den, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // GDR_PERFBENCH_TRACE_H_
