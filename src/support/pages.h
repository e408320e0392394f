// Page-mapped storage for large buffers that are mostly never written.
//
// A ring sized for the worst case (a rank's telemetry spans, obsplane
// producer events, critpath events) is written only as far as a run gets.
// Inside the malloc heap such a buffer lands on whatever pages earlier
// allocations left resident, and its unwritten capacity keeps them from
// being reused, so data written later faults in pages elsewhere. A
// process's peak footprint then depends on where every earlier run's
// buffers landed, and it creeps up from one run to the next (docs/PERF.md,
// "Rings outside the heap"). Mapped straight from the kernel, a buffer's
// unwritten pages are never resident, and unmapping it returns exactly the
// pages it touched. MAP_NORESERVE keeps a large mapping lazy under the
// default heuristic overcommit, as for the fiber stack slab; pages still
// commit on first touch.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

namespace mpim::support {

/// Standard allocator over anonymous page mappings: one zero-filled
/// mapping per allocation, unmapped on deallocation.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    void* p = ::mmap(nullptr, bytes(n), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept { ::munmap(p, bytes(n)); }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }

 private:
  static std::size_t bytes(std::size_t n) {
    return std::max<std::size_t>(n * sizeof(T), 1);
  }
};

/// Unmaps a byte array from map_pages.
struct PageUnmapper {
  std::size_t bytes = 0;
  void operator()(std::byte* p) const noexcept {
    PageAllocator<std::byte>().deallocate(p, bytes);
  }
};
using PageBytes = std::unique_ptr<std::byte[], PageUnmapper>;

/// `bytes` zero-filled bytes on pages of their own, none of them resident
/// until written. Throws std::bad_alloc when the mapping fails.
inline PageBytes map_pages(std::size_t bytes) {
  return PageBytes(PageAllocator<std::byte>().allocate(bytes),
                   PageUnmapper{bytes});
}

}  // namespace mpim::support
