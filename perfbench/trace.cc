#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Mark Trace::Begin() const {
  Mark mark;
  if (enabled_) {
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    mark.minor_faults = usage.ru_minflt;
    mark.major_faults = usage.ru_majflt;
    mark.allocs = ThreadAllocCounts();
  }
  mark.ns = NowNs();
  return mark;
}

double Trace::Close(const Mark& begin, const char* name, int session,
                    int parent, double value) {
  const std::uint64_t end = NowNs();
  const std::uint64_t dur = end - begin.ns;
  if (enabled_) {
    const AllocCounts allocs = ThreadAllocCounts();
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    Span span;
    span.name = name;
    span.session = session;
    span.parent = parent;
    span.start_ns = begin.ns;
    span.dur_ns = dur;
    span.allocs = allocs.calls - begin.allocs.calls;
    span.alloc_bytes = allocs.bytes - begin.allocs.bytes;
    span.minor_faults = usage.ru_minflt - begin.minor_faults;
    span.major_faults = usage.ru_majflt - begin.major_faults;
    span.value = value;
    spans_.push_back(span);
  }
  return static_cast<double>(dur) * 1e-9;
}

void Trace::Attribute(const char* name, int session, int parent,
                      double seconds, double value) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.session = session;
  span.parent = parent;
  if (parent >= 0) span.start_ns = spans_[static_cast<std::size_t>(parent)].start_ns;
  span.dur_ns = static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e9 + 0.5);
  span.value = value;
  spans_.push_back(span);
}

void Trace::Append(const Trace& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

Trace::Totals Trace::Sum(std::initializer_list<const char*> names) const {
  Totals totals;
  for (const Span& span : spans_) {
    bool match = false;
    for (const char* name : names) {
      match = match || std::strcmp(span.name, name) == 0;
    }
    if (!match) continue;
    totals.count += 1.0;
    totals.seconds += span.seconds();
    totals.value += span.value;
    totals.allocs += static_cast<double>(span.allocs);
    totals.alloc_bytes += static_cast<double>(span.alloc_bytes);
    totals.minor_faults += static_cast<double>(span.minor_faults);
    totals.major_faults += static_cast<double>(span.major_faults);
  }
  return totals;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"session\":%d,\"parent\":%d,"
                 "\"start_ns\":%llu,\"dur_ns\":%llu,\"allocs\":%llu,"
                 "\"alloc_bytes\":%llu,\"minor_faults\":%lld,"
                 "\"major_faults\":%lld,\"value\":%.17g}\n",
                 i, s.name, s.session, s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.dur_ns),
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.alloc_bytes),
                 static_cast<long long>(s.minor_faults),
                 static_cast<long long>(s.major_faults), s.value);
  }
  return std::fclose(out) == 0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
