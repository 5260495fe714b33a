#pragma once

// Monotonic arena for hot-path scratch.
//
// An Arena hands out raw bytes by bumping a cursor through a slab;
// reset() rewinds the cursor in O(1) without touching the heap, so a
// warmed arena serves any number of petition-sized workloads with zero
// steady-state allocations. Growth is geometric: when a request
// overflows the current slab a bigger one is allocated and becomes the
// *retained* slab at the next reset, so the arena converges on one
// slab sized to the workload's high-water mark (the same discipline as
// the FlowScheduler's scratch vectors, see DESIGN.md "Performance
// architecture").
//
// Lifetime rules (see DESIGN.md §13):
//   * allocate() results live until the next reset(), never longer;
//   * reset() must only run while no container built on the arena is
//     alive (ArenaAllocator deallocate is a no-op, so destroying
//     containers after reset is harmless but reads are not);
//   * the arena is single-threaded, like the simulation that feeds it.
//
// ArenaAllocator<T> adapts an Arena to the std::allocator interface so
// per-call scratch can be an ordinary std::vector with arena-backed
// storage; selection models reset their arena at the top of each
// score_into() and build their intermediate vectors on it.

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace peerlab::mem {

class Arena {
 public:
  /// `initial_bytes` sizes the first slab, allocated lazily on first
  /// use so an unused arena costs nothing but the object itself.
  explicit Arena(std::size_t initial_bytes = 4096) noexcept
      : next_slab_bytes_(initial_bytes < kMinSlab ? kMinSlab : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Movable so arena-owning objects (selection models) stay movable;
  /// the source is left empty but usable. Pointers into the moved-from
  /// arena's slabs stay valid — the slabs changed owner, not address.
  Arena(Arena&& other) noexcept
      : slabs_(std::move(other.slabs_)),
        current_(other.current_),
        cursor_(other.cursor_),
        next_slab_bytes_(other.next_slab_bytes_) {
    other.slabs_.clear();
    other.current_ = 0;
    other.cursor_ = 0;
  }

  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      release();
      slabs_ = std::move(other.slabs_);
      current_ = other.current_;
      cursor_ = other.cursor_;
      next_slab_bytes_ = other.next_slab_bytes_;
      other.slabs_.clear();
      other.current_ = 0;
      other.cursor_ = 0;
    }
    return *this;
  }

  ~Arena() { release(); }

  /// Raw bytes, aligned to `align` (a power of two <= kAlign; stricter
  /// requests fall back to a dedicated aligned slab).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    std::size_t cursor = align_up(cursor_, align);
    if (current_ >= slabs_.size() || cursor + bytes > slabs_[current_].bytes ||
        align > kAlign) {
      return allocate_slow(bytes, align);
    }
    void* p = slabs_[current_].base + cursor;
    cursor_ = cursor + bytes;
    return p;
  }

  /// Typed convenience: uninitialised storage for `n` objects of T.
  template <typename T>
  T* allocate_for(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty in O(1). When growth left multiple slabs behind,
  /// all but the biggest are released so the arena converges on a
  /// single slab at the workload's high-water mark; in steady state
  /// (one slab) reset never touches the heap.
  void reset() noexcept {
    if (slabs_.size() > 1) consolidate();
    current_ = 0;
    cursor_ = 0;
  }

  /// Bytes handed out since the last reset (diagnostics, tests).
  [[nodiscard]] std::size_t used() const noexcept {
    std::size_t total = cursor_;
    for (std::size_t i = 0; i < current_ && i < slabs_.size(); ++i) {
      total += slabs_[i].bytes;  // earlier slabs count as fully consumed
    }
    return total;
  }

  /// Total slab capacity currently owned (tests assert reuse).
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Slab& slab : slabs_) total += slab.bytes;
    return total;
  }

  [[nodiscard]] std::size_t slab_count() const noexcept { return slabs_.size(); }

 private:
  static constexpr std::size_t kMinSlab = 256;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  struct Slab {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
  };

  [[nodiscard]] static std::size_t align_up(std::size_t v, std::size_t align) noexcept {
    return (v + align - 1) & ~(align - 1);
  }

  void* allocate_slow(std::size_t bytes, std::size_t align);
  void consolidate() noexcept;

  void release() noexcept {
    for (Slab& slab : slabs_) ::operator delete(slab.base, std::align_val_t(kAlign));
    slabs_.clear();
  }

  std::vector<Slab> slabs_;
  std::size_t current_ = 0;          // slab being bumped
  std::size_t cursor_ = 0;           // offset into the current slab
  std::size_t next_slab_bytes_;      // size of the next slab to allocate
};

/// std::allocator adapter over an Arena. deallocate() is a no-op: the
/// arena reclaims everything at reset(). Containers using this
/// allocator must not outlive the arena, and must not be *read* after
/// a reset (see the lifetime rules above).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  T* allocate(std::size_t n) { return arena_->allocate_for<T>(n); }
  void deallocate(T*, std::size_t) noexcept {}

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) noexcept {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) noexcept {
    return a.arena_ != b.arena_;
  }

 private:
  Arena* arena_;
};

/// Per-call scratch vector living on an arena.
template <typename T>
using ScratchVector = std::vector<T, ArenaAllocator<T>>;

/// Builds an empty ScratchVector on `arena` with capacity for `n`
/// elements reserved up front — one bump allocation, no regrowth while
/// the caller stays within the reservation.
template <typename T>
[[nodiscard]] ScratchVector<T> make_scratch(Arena& arena, std::size_t n) {
  ScratchVector<T> v{ArenaAllocator<T>(arena)};
  v.reserve(n);
  return v;
}

}  // namespace peerlab::mem
