// Randomized stress test for EventQueue against a brute-force oracle.
//
// The oracle keeps every live event as (time, push-order, handle) and
// answers "what must pop next" by linear scan. The real queue is driven
// through long random interleavings of push / rearm / cancel / pop —
// including pushes earlier than everything pending (which exercises the
// sorted window's ordered-insert path), duplicate times (FIFO ties),
// daemon accounting, bulk bursts big enough to force the radix refill
// path, slot pool reuse, and the heartbeat shape of an overlay at scale
// (periodic daemon timers beside an hour-long schedule, with ties on
// every refill's batch boundary). Rearms hit both the in-place replacement
// (old entry in the sorted window) and the re-slotting fallback (old
// entry deep in the unsorted batch); the oracle models a rearm as a
// fresh push order, which is the documented cancel+push equivalence.
// Handles are checked for the stale-after-fire guarantees.

#include "peerlab/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace peerlab::sim {
namespace {

struct ModelEvent {
  double time = 0.0;
  std::uint64_t order = 0;  // global push counter: FIFO tie-break oracle
  std::uint64_t id = 0;     // fired payload; stable across rearms
  bool daemon = false;
};

/// A real EventQueue driven beside the brute-force oracle, which keeps
/// every live event and finds the next one by linear scan. Operations
/// record gtest failures; callers stop on HasFatalFailure().
class OracleHarness {
 public:
  [[nodiscard]] std::size_t live_count() const noexcept { return live_.size(); }
  [[nodiscard]] const ModelEvent& live_event(std::size_t i) const { return live_[i].event; }
  /// The event the last pop_and_verify() fired.
  [[nodiscard]] const ModelEvent& popped() const noexcept { return popped_; }

  void push(double time, bool daemon) {
    const std::uint64_t order = next_order_++;
    EventHandle handle =
        queue_.push(time, [this, order] { fired_.push_back(order); }, daemon);
    EXPECT_TRUE(handle.pending());
    live_.push_back(Tracked{std::move(handle), ModelEvent{time, order, order, daemon}});
  }

  /// Rearms live event `i` to a fresh time. The model takes a new push
  /// order: FIFO among equal times must behave exactly as if the event
  /// were cancelled and re-pushed.
  void rearm(std::size_t i, double time) {
    queue_.rearm(live_[i].handle, time);
    EXPECT_TRUE(live_[i].handle.pending());
    live_[i].event.time = time;
    live_[i].event.order = next_order_++;
  }

  void cancel(std::size_t i) {
    live_[i].handle.cancel();
    EXPECT_FALSE(live_[i].handle.pending());
    live_[i].handle.cancel();  // double-cancel must be a no-op
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void pop_and_verify() {
    ASSERT_FALSE(live_.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < live_.size(); ++i) {
      const ModelEvent& a = live_[i].event;
      const ModelEvent& b = live_[best].event;
      if (a.time < b.time || (a.time == b.time && a.order < b.order)) best = i;
    }
    ASSERT_EQ(live_[best].event.time, queue_.next_time());
    auto popped = queue_.pop();
    ASSERT_EQ(live_[best].event.time, popped.time);
    ASSERT_TRUE(static_cast<bool>(popped.action));
    popped.action();
    ASSERT_FALSE(fired_.empty());
    ASSERT_EQ(live_[best].event.id, fired_.back())
        << "fired the wrong event at t=" << popped.time;
    // A fired event's handle must go stale: pending() false and
    // cancel() a harmless no-op that does not disturb counters.
    EXPECT_FALSE(live_[best].handle.pending());
    const std::size_t size_before = queue_.size();
    live_[best].handle.cancel();
    EXPECT_EQ(size_before, queue_.size());
    popped_ = live_[best].event;
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(best));
  }

  /// Size, emptiness and daemon accounting agree with the model.
  void check_counts() const {
    ASSERT_EQ(live_.size(), queue_.size());
    ASSERT_EQ(live_.empty(), queue_.empty());
    const bool any_regular = std::any_of(live_.begin(), live_.end(),
                                         [](const Tracked& t) { return !t.event.daemon; });
    ASSERT_EQ(any_regular, queue_.has_work());
  }

  /// Pops everything: pops must come out globally (time, order)-sorted.
  void drain() {
    while (!live_.empty()) {
      pop_and_verify();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue_.empty());
    EXPECT_FALSE(queue_.has_work());
  }

 private:
  struct Tracked {
    EventHandle handle;
    ModelEvent event;
  };

  EventQueue queue_;
  std::vector<Tracked> live_;
  std::vector<std::uint64_t> fired_;
  std::uint64_t next_order_ = 0;
  ModelEvent popped_;
};

TEST(EventQueueStress, RandomInterleavingsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    OracleHarness h;
    std::mt19937_64 rng(seed);
    const auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const auto pick_live = [&] {
      return static_cast<std::size_t>(pick(0, static_cast<int>(h.live_count()) - 1));
    };
    // A coarse grid makes same-time collisions (FIFO ties) and pushes
    // below the current minimum frequent.
    const auto pick_time = [&] { return 0.25 * pick(0, 40); };

    for (int op = 0; op < 30000; ++op) {
      const int what = pick(0, 9);
      if (what <= 3) {
        h.push(pick_time(), /*daemon=*/pick(0, 4) == 0);
      } else if (what == 4 && pick(0, 60) == 0) {
        // Bulk burst: enough unsorted backlog that the next drain runs
        // the radix path, with plenty of duplicate times.
        const int n = pick(100, 400);
        for (int i = 0; i < n; ++i) h.push(pick_time(), false);
      } else if (what == 5 && h.live_count() > 0) {
        // Rearm a uniformly random live event to a fresh time. The two
        // draws are separate statements so their order is fixed.
        const std::size_t i = pick_live();
        const double time = pick_time();
        h.rearm(i, time);
      } else if (what <= 7 && h.live_count() > 0) {
        // Cancel a uniformly random live event: ones deep in the
        // unsorted batch, ones at the queue head, double-cancels.
        h.cancel(pick_live());
      } else if (h.live_count() > 0) {
        h.pop_and_verify();
      }
      h.check_counts();
      if (HasFatalFailure()) return;
    }
    h.drain();
    if (HasFatalFailure()) return;
  }
}

// The shape of an overlay at scale: n daemon heartbeat timers, each
// pushed again one period after it fires, beside a schedule of regular
// events 300 s to an hour out and near-future "datagram" events. Every
// time sits on a coarse grid whose period is a whole number of steps,
// so the timers keep colliding with one another and with the schedule:
// equal-time ties land on every refill's batch boundary, and a push,
// rearm or cancel hits the sorted window as often as the entries a
// refill left behind.
TEST(EventQueueStress, HeartbeatShapedTimersMatchOracle) {
  constexpr double kGrid = 0.5;
  constexpr double kPeriod = 30.0;  // 60 grid steps
  for (const int timers : {16, 100, 480, 1500}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("timers " + std::to_string(timers) + ", seed " + std::to_string(seed));
      OracleHarness h;
      std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(timers));
      const auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
      };
      const auto pick_live = [&] {
        return static_cast<std::size_t>(pick(0, static_cast<int>(h.live_count()) - 1));
      };
      double now = 0.0;
      // Timers start staggered over one period, several per grid step.
      for (int i = 0; i < timers; ++i) h.push(kGrid * (i % 60), /*daemon=*/true);
      for (int i = 0; i < timers / 4; ++i) h.push(kPeriod * pick(10, 120), false);

      for (int op = 0; op < 20000; ++op) {
        const int what = pick(0, 99);
        if (what < 60 && h.live_count() > 0) {
          h.pop_and_verify();
          if (HasFatalFailure()) return;
          now = h.popped().time;
          if (h.popped().daemon) {
            // The heartbeat: a fresh daemon one period out, and the
            // datagrams it sends.
            h.push(now + kPeriod, true);
            if (pick(0, 2) == 0) h.push(now + kGrid * pick(0, 12), false);
          }
        } else if (what < 70) {
          h.push(now + kPeriod * pick(10, 120), false);  // +300 s .. +3600 s
        } else if (what < 80) {
          h.push(now + kGrid * pick(0, 12), false);
        } else if (what < 90 && h.live_count() > 0) {
          // Rearm anything live, to the near future (inside the window)
          // or beyond it.
          const double delay = pick(0, 1) == 0 ? kGrid * pick(0, 12) : kGrid * pick(13, 240);
          h.rearm(pick_live(), now + delay);
        } else if (h.live_count() > 0) {
          const std::size_t i = pick_live();
          if (h.live_event(i).daemon) {
            h.rearm(i, now + kPeriod);  // a timer is re-armed, never dropped
          } else {
            h.cancel(i);
          }
        }
        h.check_counts();
        if (HasFatalFailure()) return;
      }
      h.drain();
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EventQueueStress, BulkDrainKeepsFifoAmongTies) {
  EventQueue queue;
  std::vector<int> fired;
  // 5000 events over just 7 distinct times: long FIFO runs that a
  // non-stable refill sort would scramble.
  for (int i = 0; i < 5000; ++i) {
    queue.push(static_cast<double>(i % 7), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) queue.pop().action();
  ASSERT_EQ(5000u, fired.size());
  double last_time = -1.0;
  int last_within = -1;
  for (const int i : fired) {
    const double t = static_cast<double>(i % 7);
    if (t != last_time) {
      ASSERT_LT(last_time, t);
      last_time = t;
      last_within = i;
    } else {
      ASSERT_LT(last_within, i) << "FIFO order violated at time " << t;
      last_within = i;
    }
  }
}

// Slot pool reuse: cycling far more events than are ever concurrently
// live must recycle slots (generation counters) and keep every stale
// handle inert.
TEST(EventQueueStress, PoolReuseKeepsHandlesStale) {
  EventQueue queue;
  std::vector<EventHandle> old_handles;
  int fired = 0;
  for (int wave = 0; wave < 200; ++wave) {
    for (int i = 0; i < 32; ++i) {
      old_handles.push_back(queue.push(static_cast<double>(wave), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 32; ++i) queue.pop().action();
  }
  EXPECT_EQ(200 * 32, fired);
  EXPECT_EQ(static_cast<std::uint64_t>(200 * 32), queue.total_pushed());
  for (EventHandle& handle : old_handles) {
    EXPECT_FALSE(handle.pending());
    // Cancelling through a recycled slot's old generation must be a
    // counted no-op, never a hit on the slot's current occupant.
    const std::size_t size_before = queue.size();
    handle.cancel();
    EXPECT_EQ(size_before, queue.size());
  }
  EXPECT_TRUE(queue.empty());
}

// Handles must stay safe no-ops after the queue itself is destroyed
// (they share the pool's lifetime, not the queue's).
TEST(EventQueueStress, HandlesOutliveQueue) {
  EventHandle survivor;
  {
    EventQueue queue;
    survivor = queue.push(1.0, [] {});
    EXPECT_TRUE(survivor.pending());
  }
  EXPECT_FALSE(survivor.pending());
  survivor.cancel();  // must not crash or touch freed memory
}

}  // namespace
}  // namespace peerlab::sim
