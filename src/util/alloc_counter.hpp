// Counts the calling thread's heap allocations, so a test or a bench can
// pin how many a code path makes. It replaces the global operator new,
// so it is part of no library: include it in exactly one source file of
// an executable. The array and nothrow forms forward to the counted form
// by default.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace pim {

inline thread_local int64_t t_heap_allocations = 0;

/// Heap allocations the calling thread has made so far.
inline int64_t heap_allocations() { return t_heap_allocations; }

}  // namespace pim

void* operator new(std::size_t size) {
  ++pim::t_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
