#include "testing/allocation_cap.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_cap{0};  // 0 = no cap
std::atomic<size_t> g_largest{0};

void* Allocate(size_t size, size_t alignment) {
  size_t cap = g_cap.load(std::memory_order_relaxed);
  if (cap != 0) {
    size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed)) {
    }
    if (size > cap) throw std::bad_alloc();
  }
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace bbsmine::testing {

ScopedAllocationCap::ScopedAllocationCap(size_t cap) {
  g_largest.store(0, std::memory_order_relaxed);
  g_cap.store(cap, std::memory_order_relaxed);
}

ScopedAllocationCap::~ScopedAllocationCap() {
  g_cap.store(0, std::memory_order_relaxed);
}

size_t ScopedAllocationCap::largest() const {
  return g_largest.load(std::memory_order_relaxed);
}

}  // namespace bbsmine::testing

void* operator new(size_t size) { return Allocate(size, 0); }
void* operator new[](size_t size) { return Allocate(size, 0); }
void* operator new(size_t size, std::align_val_t al) {
  return Allocate(size, static_cast<size_t>(al));
}
void* operator new[](size_t size, std::align_val_t al) {
  return Allocate(size, static_cast<size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
