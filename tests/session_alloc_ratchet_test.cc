// Allocation ratchet for the pull loop: a whole GDR session on Dataset 1
// at 1000 records, driven by the ground-truth user, may allocate no more
// per NextBatch call than the ceiling pinned below. NextBatch runs every
// machine step between labels (retraining, grouping, ranking, learner
// evaluation), so a change that brings back per-round allocation there
// fails this suite; one that removes some should lower the ceiling.
//
// operator new is replaced below to count allocations on this thread, as
// voi_rerank_differential_test does. The ceiling was measured on the
// Release build; the suite carries the `perf` label, which sanitizer jobs
// leave out.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "sim/oracle.h"
#include "workload/registry.h"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gdr {
namespace {

struct PullAllocations {
  std::uint64_t calls = 0;
  std::uint64_t allocations = 0;
  std::size_t labels = 0;
};

// Pumps one session to completion, counting the allocations made inside
// NextBatch only (the user's answers and SubmitFeedback are not counted).
PullAllocations RunSession(const std::string& spec) {
  Dataset dataset = *WorkloadRegistry::Global().Resolve(spec);
  Table working = dataset.dirty;
  GdrSession session(&working, &dataset.rules);
  EXPECT_TRUE(session.Start().ok());
  UserOracle user(&dataset.clean);
  PullAllocations counted;
  while (session.state() != SessionState::kDone) {
    const std::uint64_t before = t_allocations;
    Result<std::vector<SuggestedUpdate>> batch = session.NextBatch();
    counted.allocations += t_allocations - before;
    ++counted.calls;
    EXPECT_TRUE(batch.ok());
    if (!batch.ok()) break;
    for (const SuggestedUpdate& suggestion : *batch) {
      if (!session.IsLive(suggestion.update_id)) continue;
      const Feedback feedback =
          user.GetFeedback(session.table(), suggestion.update);
      std::optional<std::string> volunteered;
      if (feedback == Feedback::kReject) {
        volunteered = user.SuggestValue(session.table(), suggestion.update);
      }
      EXPECT_TRUE(session
                      .SubmitFeedback(suggestion.update_id, feedback,
                                      std::move(volunteered))
                      .ok());
      ++counted.labels;
    }
  }
  return counted;
}

// Measured when the ceiling was set (GCC 12, libstdc++): 182 calls, 566
// labels, 159.2 allocations per call. The ceiling leaves 10% headroom for
// container growth policies of other standard library builds.
constexpr double kMaxAllocationsPerNextBatch = 176.0;

TEST(SessionAllocRatchetTest, NextBatchAllocationsStayUnderCeiling) {
  const PullAllocations counted = RunSession("dataset1:records=1000");
  ASSERT_GT(counted.calls, 50u);
  ASSERT_GT(counted.labels, 100u);
  const double per_call = static_cast<double>(counted.allocations) /
                          static_cast<double>(counted.calls);
  std::printf("NextBatch: %llu calls, %zu labels, %.1f allocations per call\n",
              static_cast<unsigned long long>(counted.calls), counted.labels,
              per_call);
  EXPECT_LE(per_call, kMaxAllocationsPerNextBatch);
}

}  // namespace
}  // namespace gdr
