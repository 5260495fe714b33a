#include "peerlab/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "peerlab/common/check.hpp"

namespace peerlab::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReportsEventTime) {
  EventQueue q;
  q.push(7.25, [] {});
  auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 7.25);
}

TEST(EventQueue, NextTimeSeesEarliestLiveEvent) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, CancelledEventNeverFires) {
  EventQueue q;
  bool fired = false;
  auto h = q.push(1.0, [&] { fired = true; });
  h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnEmptyHandle) {
  EventHandle empty;
  empty.cancel();  // no crash
  EXPECT_FALSE(empty.pending());

  EventQueue q;
  auto h = q.push(1.0, [] {});
  h.cancel();
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, HandleReportsPendingLifecycle) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  EXPECT_TRUE(h.pending());
  q.pop().action();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelBuriedEventSkipsIt) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  auto h = q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, RejectsNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, [] {}), InvariantError);
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), [] {}), InvariantError);
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), [] {}), InvariantError);
}

TEST(EventQueue, RejectsEmptyAction) {
  EventQueue q;
  EXPECT_THROW(q.push(1.0, Action{}), InvariantError);
}

TEST(EventQueue, TotalPushedCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.push(1.0, [] {});
  EXPECT_EQ(q.total_pushed(), 5u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<double> times;
  // Deliberately interleaved pushes with duplicate times.
  for (int i = 0; i < 1000; ++i) {
    q.push(static_cast<double>((i * 7919) % 101), [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

TEST(EventQueue, RearmMovesEventAndKeepsAction) {
  EventQueue q;
  std::vector<int> order;
  auto h = q.push(5.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  q.rearm(h, 1.0);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RearmToSameTimeFiresAfterExistingTies) {
  // A rearmed event takes a fresh sequence number, so among equal times
  // it must fire last — exactly where cancel + re-push would put it.
  EventQueue q;
  std::vector<int> order;
  auto h = q.push(1.0, [&] { order.push_back(0); });
  q.push(3.0, [&] { order.push_back(1); });
  q.push(3.0, [&] { order.push_back(2); });
  q.rearm(h, 3.0);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(EventQueue, RearmCancelledByHandleNeverFires) {
  EventQueue q;
  bool fired = false;
  auto h = q.push(1.0, [&] { fired = true; });
  q.push(2.0, [] {});
  q.rearm(h, 3.0);
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RearmReachesEventsBeyondSortedWindow) {
  // Push enough backlog that later pushes land in the unsorted far
  // list, then rearm one of those: this takes the re-slotting fallback,
  // which must rebind the handle and keep counts exact.
  EventQueue q;
  std::vector<double> times;
  q.push(1.0, [] {});
  q.pop();  // seeds the sorted window's limit at 1.0
  std::vector<EventHandle> handles;
  bool fired = false;
  for (int i = 0; i < 50; ++i) {
    handles.push_back(q.push(10.0 + i, [] {}));
  }
  auto h = q.push(100.0, [&] { fired = true; });
  q.rearm(h, 2.0);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(q.size(), 51u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().action();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, RearmPreservesDaemonFlag) {
  EventQueue q;
  auto h = q.push(1.0, [] {}, /*daemon=*/true);
  EXPECT_FALSE(q.has_work());
  q.rearm(h, 2.0);
  EXPECT_FALSE(q.has_work());
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LatePushesOnARefillBoundaryKeepFifo) {
  // A refill moves only an earliest batch into the sorted window. For
  // every instant k, a late push F lands beyond the window at k, and
  // after each later pop another push P lands at k too: wherever a
  // refill's batch boundary falls, F must fire after the original event
  // at k and before every P, and the Ps in push order.
  for (int k = 3; k <= 300; ++k) {
    EventQueue q;
    std::vector<int> fired;
    for (int t = 1; t <= 300; ++t) q.push(t, [&fired, t] { fired.push_back(t); });
    q.pop().action();
    q.pop().action();
    q.push(k, [&fired] { fired.push_back(-1); });
    int late = 0;
    while (!q.empty()) {
      const auto popped = q.pop();
      popped.action();
      if (popped.time < k) {
        const int id = -2 - late++;
        q.push(k, [&fired, id] { fired.push_back(id); });
      }
    }
    const auto at_k = std::find(fired.begin(), fired.end(), k);
    ASSERT_NE(at_k, fired.end());
    ASSERT_GE(fired.end() - at_k, late + 2);
    EXPECT_EQ(at_k[1], -1) << "k = " << k;
    for (int i = 0; i < late; ++i) ASSERT_EQ(at_k[2 + i], -2 - i) << "k = " << k;
  }
}

TEST(EventQueue, RearmRejectsBadTimeAndDeadHandle) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  EXPECT_THROW(q.rearm(h, -1.0), InvariantError);
  h.cancel();
  EXPECT_THROW(q.rearm(h, 2.0), InvariantError);
}

}  // namespace
}  // namespace peerlab::sim
