#pragma once

// THP-friendly uninitialized scratch for large per-call work arrays.
//
// A fresh anonymous mapping is paid for at first touch: one minor fault
// plus one kernel zeroing pass per page. For a per-call array the size
// of the whole field (the interp decoder's QP codes array, for one)
// that fault storm shows up directly in the stage time. Mapping the
// buffer at the transparent-huge-page size and advising the kernel
// (MADV_HUGEPAGE; the default "madvise" THP mode honors exactly this)
// collapses tens of thousands of 4 KiB faults into dozens of 2 MiB
// ones. Buffers of at least that size are their own mapping, unmapped
// on free, so a buffer's pages go back to the system the moment it is
// released or replaced; smaller ones come from the heap.
//
// The buffer is NOT zeroed. Callers must write every entry they later
// read; users of this header document why that holds for them.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace qip {

struct ScratchFree {
  /// THP size on every x86-64/aarch64 configuration we target: the
  /// size from which a buffer gets its own mapping, and its alignment.
  static constexpr std::size_t kHuge = std::size_t{2} << 20;
  /// Alignment of heap buffers: a cache line, and any SIMD register.
  static constexpr std::size_t kAlign = 64;

  std::size_t mapped = 0;  ///< length of the buffer's own mapping, or 0

  void operator()(void* p) const noexcept {
#if defined(__linux__)
    if (mapped != 0) {
      ::munmap(p, mapped);
      return;
    }
#endif
    ::operator delete(p, std::align_val_t{kAlign});
  }
};

template <class T>
using Scratch = std::unique_ptr<T[], ScratchFree>;

/// Allocate n uninitialized elements: from 2 MiB on, a 2 MiB-aligned
/// mapping of its own, huge-page advised; below that, 64-byte-aligned
/// heap memory.
template <class T>
Scratch<T> make_scratch(std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T> &&
                    std::is_trivially_constructible_v<T>,
                "scratch buffers skip construction entirely");
  const std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
  constexpr std::size_t kHuge = ScratchFree::kHuge;
  if (bytes >= kHuge) {
    // Map one huge page more than needed, then trim to an aligned run.
    // The run ends at the last base page the buffer uses, so its partial
    // last huge page stays in base pages and adds no resident memory.
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t len = (bytes + page - 1) / page * page;
    void* const raw = ::mmap(nullptr, len + kHuge, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    void* p = raw;
    std::size_t space = len + kHuge;
    std::align(kHuge, len, p, space);  // the spare page makes room
    char* const at = static_cast<char*>(p);
    const std::size_t head =
        static_cast<std::size_t>(at - static_cast<char*>(raw));
    if (head != 0) ::munmap(raw, head);
    if (head < kHuge) ::munmap(at + len, kHuge - head);
    ::madvise(at, len, MADV_HUGEPAGE);
    return Scratch<T>(static_cast<T*>(p), ScratchFree{len});
  }
#endif
  return Scratch<T>(static_cast<T*>(::operator new(
      bytes, std::align_val_t{ScratchFree::kAlign})));
}

/// Thread-cached variant: the buffer persists (and grows monotonically)
/// for the life of the thread, so repeated same-size calls — a stream of
/// timesteps through the decoder, bench repetitions — pay the fault
/// storm once instead of per call. The contents carry over from the
/// previous use; callers must already tolerate arbitrary garbage, which
/// is the same contract as make_scratch. Retention is bounded by the
/// largest request, i.e. proportional to the largest field decoded on
/// the thread; a buffer outgrown is released before its successor is
/// made.
template <class T>
T* scratch_cache(std::size_t n) {
  thread_local Scratch<T> buf;
  thread_local std::size_t cap = 0;
  if (cap < n) {
    buf.reset();
    cap = 0;
    buf = make_scratch<T>(n);
    cap = n;
  }
  return buf.get();
}

}  // namespace qip
