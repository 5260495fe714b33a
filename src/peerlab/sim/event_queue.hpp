#pragma once

// Pending-event set for the discrete-event engine.
//
// Events are (time, sequence, action). The sequence number makes ordering
// total and FIFO among events scheduled for the same instant, which is
// what makes simulations deterministic and replayable. Cancellation is
// lazy: cancel() marks the event's pool slot and pop() skips dead
// entries, so both operations stay O(log n) / O(1).
//
// Performance layout (see DESIGN.md "Performance architecture"): event
// state lives in a free-listed pool of slots with generation counters,
// not in one shared_ptr control block per event. Ordering uses a lazy
// structure over 16-byte POD entries {time, seq|flags|slot} instead of
// a heap. `bottom_` is sorted descending (pop = pop_back); its back
// part is the sorted window, the front part what the last refill left.
// `far_` collects pushes later than the window in O(1), in push order.
// When the window drains, a refill merges `far_` into `bottom_` — only
// when some `far_` entry is due within the next batch, after a stable
// LSD radix sort on the time bits that keeps ties in push (= sequence)
// order — and then just moves the window boundary: the new window is
// the earliest batch, about one eighth of everything pending, extended
// over equal-time ties. A window of bounded size keeps the ordered
// insert of a near-future push short and sends far-future re-arms
// (heartbeat timers) to `far_` instead of shifting every nearer entry;
// each merge costs O(pending) and is paid for by the batch of pops that
// follows it, so sort and merge work stays O(1) amortised per event.
// The std::function is moved exactly twice per event (into its slot at
// push, out at pop).
// Steady-state push/cancel/pop perform zero heap allocations: the only
// allocations are pool/list growth to the high-water mark.
//
// The pool is shared between the queue and its handles through a
// *non-atomic* intrusive refcount: a simulation is single-threaded by
// design (see Simulator), so handles never cross threads and the
// refcount needs no synchronisation. Handles that outlive the queue
// keep the pool alive, which keeps their cancel()/pending() safe no-ops.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "peerlab/common/units.hpp"

namespace peerlab::sim {

using Action = std::function<void()>;

namespace detail {

/// One pooled event state. A slot is owned by exactly one heap entry
/// from push until that entry drains (pop or drop_dead), then recycled
/// with a bumped generation so stale handles can never observe it.
/// Padded to exactly one cache line: neighbouring slots never share a
/// line, so the move-in/move-out of one event's action and the
/// generation checks of an unrelated handle cannot ping-pong the same
/// line, and slot index << 6 is the line address.
struct alignas(64) EventSlot {
  Action action;
  std::uint64_t generation = 0;
  // Exact heap key {armed_time, armed_packed} of the entry that owns
  // this slot — lets rearm() find and replace that entry in place.
  std::uint64_t armed_packed = 0;
  double armed_time = 0.0;
  bool cancelled = false;
  bool daemon = false;
};
static_assert(sizeof(EventSlot) == 64, "EventSlot must occupy exactly one cache line");
static_assert(alignof(EventSlot) == 64);

/// Slot storage shared between a queue and its handles (intrusive,
/// non-atomic refcount — see file comment). The one allocation is per
/// queue, not per event.
struct EventPool {
  std::vector<EventSlot> slots;
  std::vector<std::uint32_t> free_list;  // capacity kept >= slots.size()
  std::int64_t regular_live = 0;         // live non-daemon events
  std::size_t live = 0;                  // live (non-cancelled) events
  std::size_t cancelled_scheduled = 0;   // cancelled entries still heaped
  std::uint64_t refs = 1;                // queue + outstanding handles
};

}  // namespace detail

/// Handle to a scheduled event; lets the scheduler cancel timers
/// (e.g. a retransmission timer once the ack arrives). Copyable value
/// type; must stay on the simulation's thread.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other) noexcept
      : pool_(other.pool_), slot_(other.slot_), generation_(other.generation_) {
    if (pool_ != nullptr) ++pool_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        slot_(other.slot_),
        generation_(other.generation_) {}
  EventHandle& operator=(const EventHandle& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      slot_ = other.slot_;
      generation_ = other.generation_;
      if (pool_ != nullptr) ++pool_->refs;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = std::exchange(other.pool_, nullptr);
      slot_ = other.slot_;
      generation_ = other.generation_;
    }
    return *this;
  }
  ~EventHandle() { release(); }

  /// True while the event is scheduled and not cancelled or fired.
  [[nodiscard]] bool pending() const noexcept {
    return pool_ != nullptr && slot_ < pool_->slots.size() &&
           pool_->slots[slot_].generation == generation_ && !pool_->slots[slot_].cancelled;
  }

  /// Cancels the event; safe to call repeatedly or on an empty handle.
  void cancel() noexcept {
    if (!pending()) return;
    detail::EventSlot& slot = pool_->slots[slot_];
    slot.cancelled = true;
    slot.action = nullptr;  // release captured resources eagerly
    --pool_->live;
    ++pool_->cancelled_scheduled;
    if (!slot.daemon) --pool_->regular_live;
  }

 private:
  friend class EventQueue;
  EventHandle(detail::EventPool* pool, std::uint32_t slot, std::uint64_t generation) noexcept
      : pool_(pool), slot_(slot), generation_(generation) {
    ++pool_->refs;
  }

  void release() noexcept {
    if (pool_ != nullptr && --pool_->refs == 0) delete pool_;
    pool_ = nullptr;
  }

  detail::EventPool* pool_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() : pool_(new detail::EventPool()) {}
  ~EventQueue() {
    clear();
    if (--pool_->refs == 0) delete pool_;
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Adds an event firing at absolute time `when`. Times must be finite
  /// and non-negative; the caller (Simulator) enforces monotonicity
  /// against the clock. Daemon events (periodic heartbeats,
  /// housekeeping timers) do not keep a run() alive: the run loop exits
  /// once only daemon events remain.
  EventHandle push(Seconds when, Action action, bool daemon = false);

  /// Moves a pending event to fire at absolute time `when` instead,
  /// keeping its action and daemon flag. Ordering is exactly what
  /// cancel() + push(same action) would produce: the rearmed event
  /// takes a fresh sequence number, so it fires after anything already
  /// scheduled for the same instant. The common case (old entry inside
  /// the sorted window) replaces the entry in place — no slot
  /// recycling, no std::function churn, no cancelled residue — and
  /// leaves `handle` untouched; otherwise the event is re-slotted via
  /// cancel+push and `handle` is rebound to the new slot (other copies
  /// of the handle then observe the event as cancelled).
  /// Precondition: handle.pending() and the handle belongs to this queue.
  void rearm(EventHandle& handle, Seconds when);

  /// True if no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const noexcept { return pool_->live == 0; }

  /// True while at least one live non-daemon event remains.
  [[nodiscard]] bool has_work() const noexcept { return pool_->regular_live > 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return pool_->live; }

  /// Time of the earliest live event; undefined when empty().
  [[nodiscard]] Seconds next_time() const;

  /// Removes and returns the earliest live event's action and time.
  /// Precondition: !empty().
  struct Fired {
    Seconds time = 0.0;
    Action action;
  };
  Fired pop();

  /// Drops every pending event (end of simulation teardown).
  void clear() noexcept;

  /// Total number of events ever pushed (telemetry for microbenches).
  [[nodiscard]] std::uint64_t total_pushed() const noexcept { return next_seq_; }

 private:
  // Trivially copyable 16-byte entry: sorting moves plain words; the
  // action stays put in its pool slot.
  //
  // `packed` = seq (43 bits) | daemon (1 bit) | slot (20 bits). The
  // sequence lives in the high bits and is unique, so comparing the
  // whole word tie-breaks same-time events FIFO regardless of the low
  // bits. push() checks both width limits loudly (2^20 concurrent
  // events, 2^43 events per queue lifetime).
  struct Entry {
    Seconds time = 0.0;        // comparator-hot field first: the radix
    std::uint64_t packed = 0;  // sort keys off its raw bits at offset 0
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(sizeof(Entry) == 16, "four entries per cache line");
  static_assert(offsetof(Entry, time) == 0, "radix sort reads time at the entry base");

  static constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

  static constexpr std::uint64_t kSlotBits = 20;
  static constexpr std::uint64_t kDaemonBit = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqShift = kSlotBits + 1;
  static constexpr std::uint64_t kSlotMask = kDaemonBit - 1;

  [[nodiscard]] static std::uint32_t slot_of(const Entry& e) noexcept {
    return static_cast<std::uint32_t>(e.packed & kSlotMask);
  }
  [[nodiscard]] static bool daemon_of(const Entry& e) noexcept {
    return (e.packed & kDaemonBit) != 0;
  }

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;
  }

  /// Routes a fresh entry into the sorted window (ordered insert) or
  /// `far_` (push-ordered beyond it). Shared by push() and rearm().
  void enqueue(const Entry& entry);
  /// Opens the next window once the current one has drained: drops
  /// cancelled `far_` entries, merges `far_` into `bottom_` when one of
  /// them is due within the batch, then moves the window boundary over
  /// the batch. May allocate only while the list capacities are still
  /// below their high-water marks.
  void refill() const;
  /// Index in `bottom_` where a refill's batch of about `want` entries
  /// starts: the earliest `want`, extended backwards over every entry
  /// that shares the batch's latest time.
  [[nodiscard]] std::size_t batch_start(std::size_t want) const noexcept;
  /// Sorts `far_` and merges it into `bottom_` (descending after).
  void merge_far() const;
  /// Stable ascending sort of `far_` by time: LSD radix over the key
  /// bits, skipping digit positions all keys share. Stability preserves
  /// push order — and therefore FIFO sequence order — among ties.
  void sort_far() const;
  /// Ensures bottom_.back() is the earliest live event: refills when
  /// the sorted window is empty and pops cancelled entries,
  /// recycling their slots. Const because read paths (next_time)
  /// trigger it lazily; the lists and pool are the mutable cache this
  /// maintains.
  void drop_dead() const;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) const noexcept;

  // Windowed lazy ordering. Invariant: the window `bottom_[window_..]`
  // holds every entry whose time is <= `bottom_limit_`; the entries
  // before it and those in `far_` are all later than `bottom_limit_`.
  // Draining the window before anything else is therefore the correct
  // total order, and equal times never straddle the window boundary (a
  // refill batch takes all of its latest instant). Inside each list,
  // FIFO among ties is the sequence order: `bottom_` is sorted by the
  // full (time, seq) key, and `far_` stays in push order until the
  // stable sort that merges it. `far_min_` bounds `far_` from below
  // (conservatively: cancelled entries still count) and tells a refill
  // whether `far_` can wait.
  mutable std::vector<Entry> bottom_;     // sorted descending; back() = earliest
  mutable std::vector<Entry> far_;        // unsorted, push-ordered
  mutable std::vector<Entry> sort_tmp_;   // radix scatter and merge buffer
  mutable std::size_t window_ = 0;        // first index of the sorted window
  mutable Seconds bottom_limit_ = 0.0;    // pushes at or below this enter the window
  mutable Seconds far_min_ = kNever;      // earliest time pushed to far_ since its last merge
  detail::EventPool* pool_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace peerlab::sim
