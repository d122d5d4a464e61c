// Aligned allocation helpers.
//
// The PIR record scan streams whole cache lines and wants vector loads on
// aligned addresses; AlignedBytes is a std::vector whose backing store is
// always 64-byte (cache-line) aligned so row starts stay aligned when the
// row stride is a multiple of 64 (see pir::BlobDatabase).
//
// HugeBytes extends this for multi-megabyte arenas (the record store a
// scan streams end to end): allocations of at least one hugepage are
// 2 MiB-aligned and madvise(MADV_HUGEPAGE)d, asking the kernel for
// transparent hugepages so a 1 GiB shard costs ~512 TLB entries instead of
// ~262k. Everything degrades gracefully — when THP is disabled, madvise
// fails, or the platform is not Linux, the memory is still valid
// cache-line-aligned memory and the scan just pays 4 KiB TLB pressure.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace lw {

inline constexpr std::size_t kCacheLineSize = 64;

// Transparent hugepage quantum on x86-64 Linux.
inline constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

// Rounds n up to the next multiple of `alignment` (a power of two).
constexpr std::size_t AlignUp(std::size_t n, std::size_t alignment) {
  return (n + alignment - 1) & ~(alignment - 1);
}

// Minimal C++17 allocator over std::aligned_alloc. Alignment must be a
// power of two; allocation sizes are rounded up to a multiple of it (an
// aligned_alloc requirement).
template <typename T, std::size_t Alignment = kCacheLineSize>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    const std::size_t bytes = AlignUp(n * sizeof(T), Alignment);
    void* p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

// Byte buffer whose data() is always kCacheLineSize-aligned.
using AlignedBytes =
    std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>>;

namespace internal {
inline std::atomic<std::uint64_t>& HugepageAdvisedBytesCounter() {
  static std::atomic<std::uint64_t> bytes{0};
  return bytes;
}
}  // namespace internal

// Total bytes successfully madvise(MADV_HUGEPAGE)d so far — lets tests and
// the bench JSON confirm whether the hugepage path actually engaged on this
// host (THP set to "never" makes madvise fail silently otherwise).
inline std::uint64_t HugepageAdvisedBytes() {
  return internal::HugepageAdvisedBytesCounter().load(
      std::memory_order_relaxed);
}

// Like AlignedAllocator, but allocations of at least one hugepage are
// 2 MiB-aligned and madvised toward transparent hugepages. Small
// allocations keep the cheap cache-line alignment (aligning a 4 KiB vector
// to 2 MiB would waste the rest of the reservation). The advice is
// best-effort: failure (THP disabled, old kernel, non-Linux) is ignored
// and the allocation is still correct.
template <typename T>
class HugepageAllocator {
 public:
  using value_type = T;

  HugepageAllocator() = default;
  template <typename U>
  HugepageAllocator(const HugepageAllocator<U>&) {}

  template <typename U>
  struct rebind {
    using other = HugepageAllocator<U>;
  };

  T* allocate(std::size_t n) {
    // Bounds the rounding below, which must not pass PTRDIFF_MAX.
    if (n > (PTRDIFF_MAX - kHugePageSize) / sizeof(T)) throw std::bad_alloc();
    const std::size_t raw = n * sizeof(T);
    const bool huge = raw >= kHugePageSize;
    const std::size_t alignment = huge ? kHugePageSize : kCacheLineSize;
    const std::size_t bytes = AlignUp(raw, alignment);
    void* p = std::aligned_alloc(alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
#if defined(__linux__)
    if (huge && madvise(p, bytes, MADV_HUGEPAGE) == 0) {
      internal::HugepageAdvisedBytesCounter().fetch_add(
          bytes, std::memory_order_relaxed);
    }
#endif
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  friend bool operator==(const HugepageAllocator&, const HugepageAllocator&) {
    return true;
  }
  friend bool operator!=(const HugepageAllocator&, const HugepageAllocator&) {
    return false;
  }
};

// Byte buffer for large arenas: data() is at least kCacheLineSize-aligned
// always, and kHugePageSize-aligned + THP-advised once it holds ≥ 2 MiB.
using HugeBytes = std::vector<std::uint8_t, HugepageAllocator<std::uint8_t>>;

}  // namespace lw
