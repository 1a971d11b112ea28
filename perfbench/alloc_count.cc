// Counting replacements of the global allocation functions: every
// operator new bumps the calling thread's call and byte counters, so a
// span can report the allocations made inside it. Thread-local counters
// keep concurrent client threads from contending on a shared cache line
// and attribute each allocation to the thread (and so the span) that made
// it. Memory still comes from malloc; only the counting is added.
#include <cstdlib>
#include <new>

#include "trace.h"

namespace {

thread_local std::uint64_t t_alloc_calls = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

void* CountedAlloc(std::size_t size) {
  ++t_alloc_calls;
  t_alloc_bytes += size;
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

namespace perfbench {

AllocCounts ThreadAllocCounts() { return {t_alloc_calls, t_alloc_bytes}; }

}  // namespace perfbench

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
