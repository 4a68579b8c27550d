// 64-byte-aligned allocation.
//
// SIMD kernels (src/nn/kernels) issue aligned 256-bit loads from packed
// panels and benefit from cache-line-aligned activation buffers; std::vector's
// default allocator only guarantees alignof(std::max_align_t) (16 on x86-64).
// AlignedAllocator upgrades any std::vector to a fixed alignment without
// changing its interface, so Tensor storage and ExecutionContext scratch can
// stay ordinary vectors.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace cnn2fpga::util {

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment must not weaken the type's own");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) noexcept {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) noexcept {
  return false;
}

/// std::vector with 64-byte-aligned storage (cache line / AVX-512 friendly).
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T, 64>>;

}  // namespace cnn2fpga::util
