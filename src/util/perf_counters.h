#ifndef GDR_UTIL_PERF_COUNTERS_H_
#define GDR_UTIL_PERF_COUNTERS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace gdr {

/// The phases the hot-path perf layer distinguishes. Kept deliberately
/// coarse: one slot per phase that a profile-guided optimization round
/// would want to localize, not a general tracing framework.
enum class PerfPhase : std::size_t {
  /// LearnerBank feature encoding (per-update or matrix layout).
  kLearnerEncode = 0,
  /// Forest evaluation: tree descents + vote accumulation.
  kLearnerTreeWalk,
  /// VOI benefit probes (closed-form batch probes or delta staging).
  kVoiProbe,
  /// Forest (re)training after feedback; count = training examples.
  kLearnerTrain,
  /// Candidate-update (re)generation: UpdateAttributeTuple calls.
  kRegenerate,
  /// VOI benefit probes actually run, i.e. not reused from the previous
  /// ranking pass; count only (their time is inside kVoiProbe).
  kVoiReprobe,
  /// p̃ values the VOI ranker reused from the previous ranking pass rather
  /// than evaluated with the learner; count only.
  kLearnerReuse,
};

inline constexpr std::size_t kNumPerfPhases = 7;

/// Alloc-free cumulative phase counters: wall nanoseconds plus an item
/// count per phase (updates encoded, rows walked, updates probed, examples
/// trained on). A PerfCounters is plain data — no locks, no heap — so the
/// per-thread pattern is one instance per worker scratch, merged into an
/// owner's instance after the fan-out barrier. Single-instance use (LearnerBank,
/// which always runs on the calling thread) just accumulates in place.
struct PerfCounters {
  struct Slot {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  std::array<Slot, kNumPerfPhases> slots{};

  void Add(PerfPhase phase, std::uint64_t ns, std::uint64_t count) {
    Slot& slot = slots[static_cast<std::size_t>(phase)];
    slot.ns += ns;
    slot.count += count;
  }

  void MergeFrom(const PerfCounters& other) {
    for (std::size_t i = 0; i < kNumPerfPhases; ++i) {
      slots[i].ns += other.slots[i].ns;
      slots[i].count += other.slots[i].count;
    }
  }

  void Reset() { slots = {}; }

  double Seconds(PerfPhase phase) const {
    return static_cast<double>(slots[static_cast<std::size_t>(phase)].ns) *
           1e-9;
  }
  std::uint64_t Count(PerfPhase phase) const {
    return slots[static_cast<std::size_t>(phase)].count;
  }
};

/// Scoped accumulation into one phase slot: two steady_clock reads per
/// scope, no allocation. `count` is the number of items the scope
/// processed (so ns/count is a meaningful per-item cost).
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PerfCounters* counters, PerfPhase phase,
                   std::uint64_t count)
      : counters_(counters),
        phase_(phase),
        count_(count),
        start_(std::chrono::steady_clock::now()) {}

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

  ~ScopedPhaseTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    counters_->Add(
        phase_,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        count_);
  }

 private:
  PerfCounters* counters_;
  PerfPhase phase_;
  std::uint64_t count_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gdr

#endif  // GDR_UTIL_PERF_COUNTERS_H_
