// Page-backed storage for the DRAM-sized metadata tables (DESIGN.md,
// "Page-backed metadata tables").
//
// HugePageAllocator maps requests of 2 MiB or more itself: an anonymous
// mapping of whole huge pages at a 2 MiB boundary, marked MADV_HUGEPAGE (a
// hint: with transparent huge pages off it keeps 4 KiB pages) and unmapped
// as soon as it is freed. Smaller requests, non-Linux hosts and
// AddressSanitizer builds (which keep their bounds-checked heap) use
// std::allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define POD_PAGE_ALLOC_MMAP 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define POD_PAGE_ALLOC_MMAP 0
#endif
#endif
#if !defined(POD_PAGE_ALLOC_MMAP) && defined(__linux__)
#define POD_PAGE_ALLOC_MMAP 1
#include <sys/mman.h>
#elif !defined(POD_PAGE_ALLOC_MMAP)
#define POD_PAGE_ALLOC_MMAP 0
#endif

namespace pod {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
/// True when requests of kHugePageBytes or more are mmap-backed.
inline constexpr bool kPageBackedAllocation = POD_PAGE_ALLOC_MMAP;

template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
#if POD_PAGE_ALLOC_MMAP
    if (n * sizeof(T) >= kHugePageBytes) {
      // Over-map by one huge page, then unmap the misaligned head and the
      // surplus tail.
      const std::size_t len = mapped_bytes(n);
      void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (raw == MAP_FAILED) throw std::bad_alloc();
      const std::size_t head =
          -reinterpret_cast<std::uintptr_t>(raw) % kHugePageBytes;
      if (head != 0) munmap(raw, head);
      char* p = static_cast<char*>(raw) + head;
      munmap(p + len, kHugePageBytes - head);
      madvise(p, len, MADV_HUGEPAGE);  // failure keeps 4 KiB pages
      return reinterpret_cast<T*>(p);
    }
#endif
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
#if POD_PAGE_ALLOC_MMAP
    if (n * sizeof(T) >= kHugePageBytes) {
      munmap(p, mapped_bytes(n));
      return;
    }
#endif
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const HugePageAllocator&, const HugePageAllocator&) {
    return true;
  }

 private:
  static std::size_t mapped_bytes(std::size_t n) {
    return (n * sizeof(T) + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  }
};

template <typename T>
using HugeVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace pod
