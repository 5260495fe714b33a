#include "peerlab/common/check.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

namespace peerlab {
namespace {

struct Seen {
  std::vector<std::string> failures;
};

void record(void* state, const char* what) { static_cast<Seen*>(state)->failures.push_back(what); }

bool mentions(const std::vector<std::string>& failures, const std::string& needle) {
  for (const auto& what : failures) {
    if (what.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(CheckHook, ObserverFiresBeforeThrowAndClearsByOwner) {
  Seen seen;
  int other = 0;
  set_check_observer(&record, &seen);
  EXPECT_THROW(PEERLAB_CHECK_MSG(false, "first"), InvariantError);
  clear_check_observer(&other);  // not the owner: stays installed
  EXPECT_THROW(PEERLAB_CHECK_MSG(false, "second"), InvariantError);
  clear_check_observer(&seen);
  EXPECT_THROW(PEERLAB_CHECK_MSG(false, "third"), InvariantError);
  ASSERT_EQ(seen.failures.size(), 2u);
  EXPECT_TRUE(mentions(seen.failures, "first"));
  EXPECT_TRUE(mentions(seen.failures, "second"));
}

// Concurrent repetitions each arm their own flight recorder: the slot
// is per thread, so a failed check reaches only the observer its own
// thread installed. Both threads install before either fires, and they
// fire one after the other, so a process-wide slot fails this
// deterministically (one observer sees both failures, the other none).
TEST(CheckHook, ObserversAreThreadConfined) {
  Seen seen_a;
  Seen seen_b;
  std::latch installed(2);
  std::latch a_fired(1);
  const auto body = [&installed](Seen& seen, const char* tag, std::latch* wait_for,
                                 std::latch* signal) {
    set_check_observer(&record, &seen);
    installed.arrive_and_wait();
    if (wait_for != nullptr) wait_for->wait();
    try {
      PEERLAB_CHECK_MSG(false, tag);
    } catch (const InvariantError&) {
    }
    if (signal != nullptr) signal->count_down();
    clear_check_observer(&seen);
  };
  std::thread a(body, std::ref(seen_a), "thread-a", nullptr, &a_fired);
  std::thread b(body, std::ref(seen_b), "thread-b", &a_fired, nullptr);
  a.join();
  b.join();
  ASSERT_EQ(seen_a.failures.size(), 1u);
  ASSERT_EQ(seen_b.failures.size(), 1u);
  EXPECT_TRUE(mentions(seen_a.failures, "thread-a"));
  EXPECT_TRUE(mentions(seen_b.failures, "thread-b"));
}

}  // namespace
}  // namespace peerlab
