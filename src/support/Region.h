//===- support/Region.h - Demand-zero anonymous memory region ---*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size array of trivially-copyable elements backed by one
/// anonymous private mapping. The mapping is a reservation: the kernel
/// commits a page on first write and every untouched element reads as
/// zero, so a large region costs only the pages that are used. The
/// machine's code and data regions and the ID tables are Regions; a
/// never-written Tary word therefore reads as the invalid ID 0 without
/// the constructor storing it (paper Sec. 5.1).
///
/// Constness is shallow, as for std::unique_ptr<T[]>: a const Region
/// still hands out mutable elements, which is what std::atomic_ref
/// needs for loads from const accessors.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_SUPPORT_REGION_H
#define MCFI_SUPPORT_REGION_H

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mcfi {

template <typename T> class Region {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_default_constructible_v<T>,
                "a demand-zero page must be a valid array of T");

public:
  /// Reserves \p Count zero elements; throws std::bad_alloc when the
  /// mapping fails.
  explicit Region(size_t N) : Count(N) {
    if (!N)
      return;
    if (N > SIZE_MAX / sizeof(T))
      throw std::bad_alloc();
    void *P = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    Data = static_cast<T *>(P);
  }

  Region(Region &&Other) noexcept
      : Data(std::exchange(Other.Data, nullptr)),
        Count(std::exchange(Other.Count, 0)) {}

  Region &operator=(Region &&Other) noexcept {
    if (this != &Other) {
      release();
      Data = std::exchange(Other.Data, nullptr);
      Count = std::exchange(Other.Count, 0);
    }
    return *this;
  }

  Region(const Region &) = delete;
  Region &operator=(const Region &) = delete;

  ~Region() { release(); }

  T *data() const { return Data; }
  size_t size() const { return Count; }
  T &operator[](size_t I) const { return Data[I]; }

private:
  size_t bytes() const { return Count * sizeof(T); }

  void release() {
    if (Data)
      munmap(Data, bytes());
  }

  T *Data = nullptr;
  size_t Count = 0;
};

} // namespace mcfi

#endif // MCFI_SUPPORT_REGION_H
