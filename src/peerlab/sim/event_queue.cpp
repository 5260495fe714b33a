#include "peerlab/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::sim {

namespace {

// Below this size a comparison sort of the full (time, packed) key beats
// the radix passes' fixed costs. The comparator is a total order, so no
// stability requirement applies on this path.
constexpr std::size_t kSortCutoff = 64;

// A refill moves about 1/kBatchDivisor of the pending entries into the
// window, and never fewer than kMinBatch: a merge costs O(pending), so
// it is always followed by at least pending/kBatchDivisor pops.
constexpr std::size_t kBatchDivisor = 8;
constexpr std::size_t kMinBatch = 64;

/// Time as orderable bits: for non-negative finite doubles the IEEE-754
/// bit pattern is monotone in the value, so unsigned digit-wise radix
/// order equals numeric order. push() canonicalises -0.0 to keep this
/// true at zero.
[[nodiscard]] std::uint64_t time_bits(Seconds t) noexcept {
  return std::bit_cast<std::uint64_t>(t);
}

#if defined(__GNUC__) || defined(__clang__)
inline void prefetch(const void* p) noexcept { __builtin_prefetch(p); }
#else
inline void prefetch(const void*) noexcept {}
#endif

}  // namespace

EventHandle EventQueue::push(Seconds when, Action action, bool daemon) {
  PEERLAB_CHECK_MSG(std::isfinite(when) && when >= 0.0, "event time must be finite and >= 0");
  PEERLAB_CHECK_MSG(static_cast<bool>(action), "event action must be callable");
  PEERLAB_CHECK_MSG(bottom_.size() + far_.size() < kSlotMask,
                    "too many concurrent events (2^20 limit)");
  PEERLAB_CHECK_MSG(next_seq_ < (std::uint64_t{1} << (64 - kSeqShift)),
                    "event sequence space exhausted");
  if (when == 0.0) when = 0.0;  // -0.0 -> +0.0 so bit order == numeric order
  const std::uint32_t slot = acquire_slot();
  detail::EventSlot& state = pool_->slots[slot];
  state.action = std::move(action);
  state.cancelled = false;
  state.daemon = daemon;
  const Entry entry{when, (next_seq_++ << kSeqShift) | (daemon ? kDaemonBit : 0) | slot};
  state.armed_packed = entry.packed;
  state.armed_time = when;
  enqueue(entry);
  ++pool_->live;
  if (!daemon) ++pool_->regular_live;
  return EventHandle(pool_, slot, state.generation);
}

void EventQueue::rearm(EventHandle& handle, Seconds when) {
  PEERLAB_CHECK_MSG(std::isfinite(when) && when >= 0.0, "event time must be finite and >= 0");
  PEERLAB_CHECK_MSG(handle.pool_ == pool_ && handle.pending(),
                    "rearm requires a pending event of this queue");
  if (when == 0.0) when = 0.0;  // -0.0 -> +0.0 so bit order == numeric order
  const std::uint32_t slot = handle.slot_;
  detail::EventSlot& state = pool_->slots[slot];
  // Find the owning entry inside the sorted window by its exact key.
  // Keys are unique (the sequence word), so this either lands on the
  // entry or proves it lives outside the window.
  const Entry old{state.armed_time, state.armed_packed};
  const auto window = bottom_.begin() + static_cast<std::ptrdiff_t>(window_);
  const auto it = std::lower_bound(window, bottom_.end(), old, [](const Entry& a, const Entry& b) {
    return earlier(b, a);
  });
  if (it != bottom_.end() && it->packed == old.packed) {
    PEERLAB_CHECK_MSG(next_seq_ < (std::uint64_t{1} << (64 - kSeqShift)),
                      "event sequence space exhausted");
    // In-place replacement: same slot, same action, fresh sequence
    // number. Entry count is conserved, so list capacities stay within
    // the slot-count bound acquire_slot() maintains — no allocation.
    bottom_.erase(it);
    const Entry entry{when,
                      (next_seq_++ << kSeqShift) | (state.daemon ? kDaemonBit : 0) | slot};
    state.armed_packed = entry.packed;
    state.armed_time = when;
    enqueue(entry);
    return;
  }
  // Old entry sits beyond the window (erasing it would shift every
  // nearer entry): degrade to literal cancel+push, which re-slots the
  // event and leaves a cancelled residue, compacted away by refill() in
  // `far_` and dropped on reaching the window in `bottom_`.
  const bool daemon = state.daemon;
  Action action = std::move(state.action);
  handle.cancel();  // nulls the (already moved-from) action, books the residue
  handle = push(when, std::move(action), daemon);
}

void EventQueue::enqueue(const Entry& entry) {
  if (entry.time <= bottom_limit_) {
    // Inside the sorted window: ordered insert. Near-future events land
    // near the back, and the window holds one refill batch, so the
    // shifted tail is short.
    const auto window = bottom_.begin() + static_cast<std::ptrdiff_t>(window_);
    const auto it = std::lower_bound(
        window, bottom_.end(), entry, [](const Entry& a, const Entry& b) { return earlier(b, a); });
    bottom_.insert(it, entry);
  } else if (bottom_.empty() && far_.empty()) {
    // Empty queue: seed the sorted window directly and raise the limit,
    // so a pop-one/push-one cadence (event chains, single timers) never
    // routes through refill at all.
    bottom_.push_back(entry);
    window_ = 0;
    bottom_limit_ = entry.time;
  } else {
    far_.push_back(entry);
    far_min_ = std::min(far_min_, entry.time);
  }
}

Seconds EventQueue::next_time() const {
  drop_dead();
  PEERLAB_CHECK(!bottom_.empty());
  return bottom_.back().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_dead();
  PEERLAB_CHECK(!bottom_.empty());
  const Entry top = bottom_.back();
  bottom_.pop_back();
  const std::size_t n = bottom_.size();
  if (n >= 4) {
    // The next few pops' slots are already known; hide their cache miss
    // behind this pop's work.
    prefetch(&pool_->slots[slot_of(bottom_[n - 4])]);
  }
  const std::uint32_t slot = slot_of(top);
  Fired fired{top.time, std::move(pool_->slots[slot].action)};
  --pool_->live;
  if (!daemon_of(top)) --pool_->regular_live;
  release_slot(slot);
  return fired;
}

void EventQueue::clear() noexcept {
  for (const Entry& entry : bottom_) release_slot(slot_of(entry));
  for (const Entry& entry : far_) release_slot(slot_of(entry));
  bottom_.clear();
  far_.clear();
  window_ = 0;
  bottom_limit_ = 0.0;
  far_min_ = kNever;
  pool_->live = 0;
  pool_->regular_live = 0;
  pool_->cancelled_scheduled = 0;
}

void EventQueue::drop_dead() const {
  for (;;) {
    while (window_ == bottom_.size() && !(bottom_.empty() && far_.empty())) refill();
    if (window_ == bottom_.size() || pool_->cancelled_scheduled == 0) return;
    const std::uint32_t slot = slot_of(bottom_.back());
    if (!pool_->slots[slot].cancelled) return;
    --pool_->cancelled_scheduled;
    release_slot(slot);
    bottom_.pop_back();
  }
}

void EventQueue::refill() const {
  if (pool_->cancelled_scheduled != 0) {
    // Compact cancelled entries out of `far_` before sorting: recycles
    // their slots now and keeps the sort sized to live work. The
    // in-order compaction preserves push order. Cancelled `bottom_`
    // entries are dropped when the window reaches them.
    std::size_t live = 0;
    for (const Entry& entry : far_) {
      const std::uint32_t slot = slot_of(entry);
      if (pool_->slots[slot].cancelled) {
        --pool_->cancelled_scheduled;
        release_slot(slot);
      } else {
        far_[live++] = entry;
      }
    }
    far_.resize(live);
  }
  if (far_.empty()) far_min_ = kNever;
  // The window is empty, so all of `bottom_` is left from earlier
  // refills.
  const std::size_t pending = bottom_.size() + far_.size();
  if (pending == 0) return;
  const std::size_t want = std::max(kMinBatch, pending / kBatchDivisor);
  // `far_` may wait while everything in it is later than the batch
  // `bottom_` alone would yield; otherwise it joins `bottom_` first.
  if (!far_.empty() && (bottom_.empty() || far_min_ <= bottom_[batch_start(want)].time)) {
    merge_far();
  }
  window_ = batch_start(want);
  bottom_limit_ = bottom_[window_].time;
}

std::size_t EventQueue::batch_start(std::size_t want) const noexcept {
  std::size_t start = want >= bottom_.size() ? 0 : bottom_.size() - want;
  // Equal times never straddle the window boundary: the batch takes
  // every entry of its latest instant.
  while (start > 0 && bottom_[start - 1].time == bottom_[start].time) --start;
  return start;
}

void EventQueue::merge_far() const {
  const std::size_t n = far_.size();
  if (n <= kSortCutoff) {
    std::sort(far_.begin(), far_.end(),
              [](const Entry& a, const Entry& b) { return earlier(a, b); });
  } else {
    sort_far();
  }
  // Merge from the late ends: `bottom_` is descending, sorted `far_`
  // ascending. Keys are unique (the sequence word), so the merge is
  // exact and a tie in time resolves FIFO.
  const std::size_t m = bottom_.size();
  sort_tmp_.resize(m + n);
  Entry* out = sort_tmp_.data();
  const Entry* kept = bottom_.data();
  const Entry* fresh = far_.data();
  std::size_t k = 0;
  std::size_t f = n;
  while (k < m && f > 0) {
    *out++ = earlier(kept[k], fresh[f - 1]) ? fresh[--f] : kept[k++];
  }
  while (k < m) *out++ = kept[k++];
  while (f > 0) *out++ = fresh[--f];
  bottom_.swap(sort_tmp_);
  far_.clear();
  far_min_ = kNever;
}

void EventQueue::sort_far() const {
  const std::size_t n = far_.size();
  sort_tmp_.resize(n);
  // One read pass builds the histograms for all eight digit positions;
  // digit positions every key shares (common: high exponent bytes, low
  // mantissa zeros) cost no scatter pass at all.
  std::uint32_t hist[8][256] = {};
  for (const Entry& e : far_) {
    const std::uint64_t k = time_bits(e.time);
    for (int pass = 0; pass < 8; ++pass) ++hist[pass][(k >> (8 * pass)) & 0xFF];
  }
  Entry* src = far_.data();
  Entry* dst = sort_tmp_.data();
  for (int pass = 0; pass < 8; ++pass) {
    const std::uint32_t* h = hist[pass];
    bool trivial = false;
    for (int b = 0; b < 256; ++b) {
      if (h[b] == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    std::uint32_t offsets[256];
    std::uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      offsets[b] = sum;
      sum += h[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[(time_bits(src[i].time) >> (8 * pass)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != far_.data()) far_.swap(sort_tmp_);
}

std::uint32_t EventQueue::acquire_slot() {
  detail::EventPool& pool = *pool_;
  if (!pool.free_list.empty()) {
    const std::uint32_t slot = pool.free_list.back();
    pool.free_list.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(pool.slots.size());
  pool.slots.emplace_back();
  // Keep the free list's capacity ahead of the slot count so releases
  // (including those on noexcept paths) never allocate. Track the slot
  // vector's *capacity*, not its size, so growth stays amortized. The
  // entry lists each hold at most one entry per slot, so growing them
  // here too makes every later push/refill genuinely allocation-free.
  if (pool.free_list.capacity() < pool.slots.size()) {
    pool.free_list.reserve(pool.slots.capacity());
  }
  if (bottom_.capacity() < pool.slots.size()) bottom_.reserve(pool.slots.capacity());
  if (far_.capacity() < pool.slots.size()) far_.reserve(pool.slots.capacity());
  if (sort_tmp_.capacity() < pool.slots.size()) sort_tmp_.reserve(pool.slots.capacity());
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) const noexcept {
  detail::EventSlot& state = pool_->slots[slot];
  state.action = nullptr;
  state.cancelled = false;
  ++state.generation;  // invalidate outstanding handles before reuse
  pool_->free_list.push_back(slot);
}

}  // namespace peerlab::sim
