// Layout guards for the hot-path structs. The perf work in DESIGN.md
// §13 depends on concrete sizes and alignments — one EventSlot per
// cache line, two FlowScheduler::Links per line, SoA slabs of plain
// doubles — and a quiet regression (a well-meaning new field, a
// compiler padding surprise) would silently halve the cache density
// the benchmarks were tuned against. Everything here is a compile-time
// fact; the TESTs exist so a violation shows up as a named tier-1
// failure instead of a scattered static_assert error.
//
// FlowScheduler::Links and EventQueue::Entry are private, so their
// guards live as static_asserts next to the definitions
// (flow_scheduler.hpp, event_queue.hpp); this file covers the types
// that are reachable from the outside.

#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>

#include "peerlab/core/selection_model.hpp"
#include "peerlab/sim/event_queue.hpp"
#include "peerlab/stats/history.hpp"

namespace peerlab {
namespace {

// One pooled event per cache line: neighbouring slots must never share
// a line (see EventSlot's comment), and slot index << 6 is the line
// address arithmetic the pool relies on.
static_assert(sizeof(sim::detail::EventSlot) == 64);
static_assert(alignof(sim::detail::EventSlot) == 64);

// The selection models emit slabs of ScoredPeer in the petition hot
// loop and the scan partially orders them: peer, cost and the
// candidate's 32-bit position, 24 bytes with the tail padding, and
// trivially copyable so the selection's swaps are plain moves.
static_assert(sizeof(core::ScoredPeer) == 24);
static_assert(std::is_trivially_copyable_v<core::ScoredPeer>);

// A selection scan reads every candidate's history memos: the four
// tail means, their depths and states, plus the peer's FIFO handles,
// packed into one line per peer (DESIGN.md §13 "Dense per-peer state").
static_assert(sizeof(stats::detail::HistoryRow) == 64);
static_assert(alignof(stats::detail::HistoryRow) == 64);
static_assert(std::is_trivially_copyable_v<stats::detail::HistoryRow>);

TEST(Layout, EventSlotIsOneCacheLine) {
  EXPECT_EQ(64u, sizeof(sim::detail::EventSlot));
  EXPECT_EQ(64u, alignof(sim::detail::EventSlot));
}

TEST(Layout, ScoredPeerPacksPeerCostAndPosition) {
  EXPECT_EQ(24u, sizeof(core::ScoredPeer));
  EXPECT_EQ(0u, offsetof(core::ScoredPeer, peer));
  EXPECT_EQ(8u, offsetof(core::ScoredPeer, cost));
  EXPECT_EQ(16u, offsetof(core::ScoredPeer, position));
}

TEST(Layout, HistoryMemoLineIsOneCacheLine) {
  EXPECT_EQ(64u, sizeof(stats::detail::HistoryRow));
  EXPECT_EQ(64u, alignof(stats::detail::HistoryRow));
  EXPECT_EQ(0u, offsetof(stats::detail::HistoryRow, value));
}

}  // namespace
}  // namespace peerlab
